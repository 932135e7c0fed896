package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"bdbms/internal/value"
)

// checker verifies every operation's result against what the generated
// data implies, and logs each acknowledged write for the durability check.
//
// Under curation the analyst's snapshot may or may not include a write
// that is in flight, so checks there are invariants that hold for any
// snapshot: a filtered count lies between the base count plus the inserts
// acknowledged before the query was sent and the base count plus the
// inserts sent by the time its answer arrived.
type checker struct {
	d        *dataset
	curation bool

	// Inserts the curator has sent and had acknowledged, ever.
	insSent, insAcked atomic.Int64
	// written counts the user bytes of acknowledged writes, sized as
	// workload.userBytes sizes loaded data.
	written atomic.Int64

	mu        sync.Mutex
	score     map[int64]int64 // oltp: last acknowledged GScore per GID
	glen      map[int64]int64 // curation: last acknowledged GLen per GID
	inserted  map[int64]int64 // curation: acknowledged insert GID -> GLen
	annotated map[int64]bool  // curation: GIDs with an acknowledged curator annotation

	expScan  map[int64][4]int64 // threshold -> count, sum GLen, min, max GScore
	expGroup map[int64][2]int64 // OID -> count, sum GLen
	expJoin  map[int64]map[string][2]int64
	expTopN  []gene
	expAnnot map[int64]int // OID -> gene count
	rowAnn   map[int64]bool
}

func newChecker(d *dataset, params map[opKind][]int64, curation bool) *checker {
	ck := &checker{
		d: d, curation: curation,
		score: map[int64]int64{}, glen: map[int64]int64{}, inserted: map[int64]int64{}, annotated: map[int64]bool{},
		expScan: map[int64][4]int64{}, expGroup: map[int64][2]int64{}, expJoin: map[int64]map[string][2]int64{},
		expAnnot: map[int64]int{}, rowAnn: map[int64]bool{},
	}
	for _, gid := range d.rowAnns {
		ck.rowAnn[gid] = true
	}
	for _, x := range params[opScanAgg] {
		e := [4]int64{0, 0, 1 << 62, -1}
		for _, g := range d.genes {
			if g.GScore >= x {
				e[0]++
				e[1] += g.GLen
				e[2] = min(e[2], g.GScore)
				e[3] = max(e[3], g.GScore)
			}
		}
		ck.expScan[x] = e
	}
	for _, g := range d.genes {
		e := ck.expGroup[g.OID]
		ck.expGroup[g.OID] = [2]int64{e[0] + 1, e[1] + g.GLen}
		ck.expAnnot[g.OID]++
	}
	for _, x := range params[opJoin] {
		m := map[string][2]int64{}
		for _, p := range d.prots {
			g := d.genes[p.GID]
			if g.GScore < x {
				e := m[d.orgs[g.OID]]
				m[d.orgs[g.OID]] = [2]int64{e[0] + 1, e[1] + p.PLen}
			}
		}
		ck.expJoin[x] = m
	}
	top := append([]gene(nil), d.genes...)
	sort.Slice(top, func(i, j int) bool { return top[i].GScore > top[j].GScore })
	ck.expTopN = top[:min(10, len(top))]
	return ck
}

// acked and sent bracket a read: acked before it is sent (lo), sent after
// its answer arrived (hi).
func (ck *checker) acked() int64 { return ck.insAcked.Load() }
func (ck *checker) sent() int64  { return ck.insSent.Load() }

// beforeWrite is called just before a write is sent.
func (ck *checker) beforeWrite(o op) {
	if o.kind == opCurInsert {
		ck.insSent.Add(1)
	}
}

// write checks a write's acknowledgement and logs it.
func (ck *checker) write(o op, res *result) error {
	if o.kind != opCurAnnotate && res.affected != 1 {
		return fmt.Errorf("%s of GID %d affected %d rows, want 1", o.kind, o.key, res.affected)
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	switch o.kind {
	case opUpdate:
		ck.score[o.key] = o.arg
		ck.written.Add(8)
	case opCurUpdate:
		ck.glen[o.key] = o.arg
		ck.written.Add(8)
	case opCurInsert:
		ck.inserted[o.key] = o.arg
		ck.insAcked.Add(1)
		ck.written.Add(8*4 + int64(len(fmt.Sprintf("cur%d", o.key))))
	case opCurAnnotate:
		ck.annotated[o.key] = true
		ck.written.Add(int64(len(fmt.Sprintf("curated %d", o.key))))
	}
	return nil
}

func intCells(row value.Row, n int) ([]int64, error) {
	if len(row) != n {
		return nil, fmt.Errorf("row has %d columns, want %d", len(row), n)
	}
	out := make([]int64, n)
	for i, v := range row {
		if v.Type() != value.Int {
			return nil, fmt.Errorf("column %d: want INT, got %s", i, v)
		}
		out[i] = v.Int()
	}
	return out, nil
}

func within(what string, got, lo, hi int64) error {
	if got < lo || got > hi {
		return fmt.Errorf("%s = %d, want within [%d, %d]", what, got, lo, hi)
	}
	return nil
}

// read checks a query's answer. lo and hi are the insert counters taken
// before the query was sent and after its answer arrived.
func (ck *checker) read(o op, res *result, lo, hi int64) error {
	rows := res.rows
	switch o.kind {
	case opPoint:
		if len(rows) != 1 {
			return fmt.Errorf("point read of GID %d returned %d rows", o.key, len(rows))
		}
		g := ck.d.genes[o.key]
		r := rows[0]
		if len(r) != 6 || r[0].Int() != g.GID || r[1].Text() != g.GName || r[2].Int() != g.OID ||
			r[3].Int() != g.GLen || r[5].Text() != g.GSeq {
			return fmt.Errorf("point read of GID %d returned a wrong row", o.key)
		}
	case opScanAgg:
		if len(rows) != 1 {
			return fmt.Errorf("scan_agg returned %d rows", len(rows))
		}
		got, err := intCells(rows[0], 4)
		if err != nil {
			return err
		}
		e := ck.expScan[o.arg]
		if !ck.curation {
			if [4]int64(got) != e {
				return fmt.Errorf("scan_agg(%d) = %v, want %v", o.arg, got, e)
			}
			return nil
		}
		if got[2] != e[2] || got[3] < e[3] {
			return fmt.Errorf("scan_agg(%d) min/max = %d/%d, want %d/>=%d", o.arg, got[2], got[3], e[2], e[3])
		}
		return within("scan_agg count", got[0], e[0]+lo, e[0]+hi)
	case opGroup:
		seen, curated := 0, false
		for _, r := range rows {
			got, err := intCells(r, 3)
			if err != nil {
				return err
			}
			e, ok := ck.expGroup[got[0]]
			switch {
			case ok && ck.curation && got[1] != e[0]:
				return fmt.Errorf("group OID %d count %d, want %d", got[0], got[1], e[0])
			case ok && !ck.curation && [2]int64(got[1:]) != e:
				return fmt.Errorf("group OID %d = %v, want %v", got[0], got[1:], e)
			case !ok && ck.curation && got[0] == annotatedOrgs:
				curated = true
				if err := within("curated group count", got[1], max(lo, 1), hi); err != nil {
					return err
				}
			case !ok:
				return fmt.Errorf("group returned unexpected OID %d", got[0])
			default:
				seen++
			}
		}
		if seen != len(ck.expGroup) {
			return fmt.Errorf("group returned %d of %d organisms", seen, len(ck.expGroup))
		}
		if lo > 0 && !curated {
			return fmt.Errorf("group misses the curated organism after %d acknowledged inserts", lo)
		}
	case opSpillGroup:
		if len(rows) != len(ck.d.genes) {
			return fmt.Errorf("spill_group returned %d rows, want %d", len(rows), len(ck.d.genes))
		}
		per := int64(len(ck.d.prots) / len(ck.d.genes))
		for _, r := range rows {
			got, err := intCells(r, 3)
			if err != nil {
				return err
			}
			if got[0] < 0 || got[0] >= int64(len(ck.d.genes)) {
				return fmt.Errorf("spill_group returned unknown GID %d", got[0])
			}
			if want := per * proteinLen(ck.d.genes[got[0]].GLen); got[1] != per || got[2] != want {
				return fmt.Errorf("spill_group GID %d = %v, want [%d %d]", got[0], got[1:], per, want)
			}
		}
	case opJoin:
		e := ck.expJoin[o.arg]
		if len(rows) != len(e) {
			return fmt.Errorf("join(%d) returned %d groups, want %d", o.arg, len(rows), len(e))
		}
		for _, r := range rows {
			if len(r) != 3 {
				return fmt.Errorf("join row has %d columns", len(r))
			}
			want, ok := e[r[0].Text()]
			if !ok || r[1].Int() != want[0] || r[2].Int() != want[1] {
				return fmt.Errorf("join(%d) group %q = [%d %d], want %v", o.arg, r[0].Text(), r[1].Int(), r[2].Int(), want)
			}
		}
	case opTopN:
		if len(rows) != len(ck.expTopN) {
			return fmt.Errorf("topn returned %d rows", len(rows))
		}
		for i, r := range rows {
			got, err := intCells(r, 2)
			if err != nil {
				return err
			}
			if g := ck.expTopN[i]; got[0] != g.GID || got[1] != g.GScore {
				return fmt.Errorf("topn row %d = %v, want [%d %d]", i, got, g.GID, g.GScore)
			}
		}
	case opAnnot:
		if len(rows) != ck.expAnnot[o.arg] {
			return fmt.Errorf("annot(OID %d) returned %d rows, want %d", o.arg, len(rows), ck.expAnnot[o.arg])
		}
		for i, r := range rows {
			gid := r[0].Int()
			if len(r) != 3 || gid < 0 || gid >= int64(len(ck.d.genes)) || r[1].Text() != ck.d.genes[gid].GName {
				return fmt.Errorf("annot(OID %d) returned a wrong row %v", o.arg, r)
			}
			want := 1
			if ck.rowAnn[gid] {
				want = 2
			}
			if got := res.anns[i]; got < want || (!ck.curation && got != want) {
				return fmt.Errorf("annot GID %d carries %d annotations, want %d", gid, got, want)
			}
		}
	default:
		return fmt.Errorf("read check: unexpected class %s", o.kind)
	}
	return nil
}

// ackedWrites is the number of writes the durability check will look for.
func (ck *checker) ackedWrites() int {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return len(ck.score) + len(ck.glen) + len(ck.inserted) + len(ck.annotated)
}
