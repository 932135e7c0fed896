package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"bdbms"
)

// Sizes. The default buffer pool is 256 pages of 4 KiB (1 MiB).
const (
	// oltpGenes rows of ~250 B fill about 3,200 heap pages, 12x the pool,
	// so Zipf-skewed point reads still miss the pool in the key tail.
	oltpGenes = 48000
	// annotatedGenes genes with 2 proteins each and 50 organisms. The
	// spill_group working set (one group per gene) and the join's build
	// side (3,300 to 6,700 decoded Gene rows) exceed analyticsSpill; the
	// columnar mirror is not bounded by SpillBudget and stays resident.
	annotatedGenes = 40000
	annotatedOrgs  = 50
	analyticsSpill = 1 << 20
	// curatorRate is the curator's open-loop write rate in operations per
	// second: several writes land between consecutive analyst queries, so
	// nearly every query finds the table changed since the last one.
	curatorRate = 50
	// analystThink is the curation analyst's pause between an answer and
	// its next query. It keeps the two clients below the host's two CPUs,
	// so latencies measure the engine rather than CPU queueing.
	analystThink = 100 * time.Millisecond
	// passGIDStride separates the GIDs each pass's curator inserts.
	passGIDStride = 1_000_000
	// passSettle numbers the unmeasured pass after the measured ones.
	passSettle = 3
)

// workload is one traffic mix. clients returns the clients of one pass;
// every pass replays the same seeded streams.
type workload struct {
	name     string
	sz       sizes
	spill    int // Options.SpillBudget; 0 = engine default
	curation bool
	classes  []opKind // query classes, round-robin; nil for oltp
	tables   []string // tables whose WriteSeq the analyst's reads observe
	clients  func(seed int64, pass int, d *dataset, params map[opKind][]int64) []clientSpec
}

var (
	analyticsClasses = []opKind{opScanAgg, opGroup, opSpillGroup, opJoin, opTopN, opAnnot}
	curationClasses  = []opKind{opScanAgg, opGroup, opAnnot}
)

var workloads = map[string]*workload{
	"oltp": {
		name:   "oltp",
		sz:     sizes{genes: oltpGenes, orgs: annotatedOrgs, seqLen: 200},
		tables: []string{"Gene"},
		clients: func(seed int64, _ int, d *dataset, _ map[opKind][]int64) []clientSpec {
			var specs []clientSpec
			for c := 0; c < 2; c++ {
				s := newOLTPStream(seed, c, 2, len(d.genes))
				specs = append(specs, clientSpec{user: userOLTP, prepared: true, next: s.next})
			}
			return specs
		},
	},
	"analytics": {
		name:    "analytics",
		sz:      sizes{genes: annotatedGenes, protsPerGene: 2, orgs: annotatedOrgs, rowAnns: 300},
		spill:   analyticsSpill,
		classes: analyticsClasses,
		tables:  []string{"Gene", "Protein"},
		clients: func(seed int64, _ int, _ *dataset, params map[opKind][]int64) []clientSpec {
			q := newQueryStream(analyticsClasses, params)
			return []clientSpec{{user: userAnalyst, next: q.next}}
		},
	},
	"curation": {
		name:     "curation",
		sz:       sizes{genes: annotatedGenes, protsPerGene: 2, orgs: annotatedOrgs, rowAnns: 300},
		curation: true,
		classes:  curationClasses,
		tables:   []string{"Gene", "Protein"},
		clients: func(seed int64, pass int, d *dataset, params map[opKind][]int64) []clientSpec {
			q := newQueryStream(curationClasses, params)
			c := newCuratorStream(seed, len(d.genes), int64(len(d.genes)+pass*passGIDStride))
			return []clientSpec{
				{user: userAnalyst, think: analystThink, next: q.next},
				{user: userCurator, rate: curatorRate, next: c.next},
			}
		},
	},
}

// setUp loads a fresh database at path and warms it: caches fill and lazy
// structures (columnar mirrors, cached plans, statistics) are built before
// anything is timed.
func (w *workload) setUp(path string, d *dataset, params map[opKind][]int64, ck *checker) (*bdbms.DB, error) {
	db, err := openDB(path, w.spill)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*bdbms.DB, error) {
		db.Close()
		return nil, err
	}
	if w.classes == nil {
		err = loadOLTP(db, d)
	} else {
		err = loadAnnotated(db, d)
	}
	if err == nil && w.curation {
		err = enableCuration(db)
	}
	if err != nil {
		return fail(err)
	}
	ex, err := newEmbedExec(db, userAnalyst, w.classes == nil, nil)
	if err != nil {
		return fail(err)
	}
	var warm []op
	if w.classes == nil {
		s := newOLTPStream(seedWarm, 0, 1, len(d.genes))
		for len(warm) < 4000 {
			if o := s.next(); o.kind == opPoint {
				warm = append(warm, o)
			}
		}
	}
	for _, k := range w.classes {
		ps := params[k]
		if len(ps) == 0 {
			ps = []int64{0}
		}
		for _, p := range ps {
			warm = append(warm, op{kind: k, arg: p})
		}
	}
	for _, o := range warm {
		if _, err := execOne(ex, o, ck, nil, time.Time{}); err != nil {
			return fail(fmt.Errorf("warm-up %s: %w", o.kind, err))
		}
	}
	return db, nil
}

// seedWarm seeds the warm-up stream apart from every measured stream.
const seedWarm = -1

// userBytes is the size of the data the workload loaded: 8 bytes per
// integer cell plus the length of every text cell and annotation body.
func (w *workload) userBytes(d *dataset) int64 {
	var n int64
	for _, g := range d.genes {
		n += 8*4 + int64(len(g.GName)+len(g.GSeq))
	}
	if w.classes == nil {
		return n
	}
	for _, o := range d.orgs {
		n += 8 + int64(len(o))
	}
	for _, p := range d.prots {
		n += 8*3 + int64(len(p.PFunction))
	}
	n += int64(len("names from GenoBase"))
	for _, gid := range d.rowAnns {
		n += int64(len(fmt.Sprintf("reviewed %d", gid)))
	}
	return n
}

// checkDurable runs on the reopened database: every row the workload
// loaded or wrote must be there with its last acknowledged value.
func (w *workload) checkDurable(db *bdbms.DB, d *dataset, ck *checker) error {
	ctx := context.Background()
	cols := "GID, GName, OID, GLen, GScore"
	if w.classes == nil {
		cols += ", GSeq"
	}
	rows, err := db.Query(ctx, "SELECT "+cols+" FROM Gene")
	if err != nil {
		return err
	}
	defer rows.Close()
	ck.mu.Lock()
	defer ck.mu.Unlock()
	glen := map[int64]int64{}
	n := 0
	for rows.Next() {
		n++
		r := rows.Row().Values
		gid := r[0].Int()
		if gid >= int64(len(d.genes)) {
			want, ok := ck.inserted[gid]
			if !ok || r[2].Int() != annotatedOrgs || r[3].Int() != want || r[4].Int() != gid {
				return fmt.Errorf("gene %d: unexpected row %v", gid, r)
			}
			continue
		}
		g := d.genes[gid]
		wantLen, wantScore := g.GLen, g.GScore
		if v, ok := ck.glen[gid]; ok {
			wantLen = v
		}
		if v, ok := ck.score[gid]; ok {
			wantScore = v
		}
		if r[1].Text() != g.GName || r[2].Int() != g.OID || r[3].Int() != wantLen || r[4].Int() != wantScore ||
			(w.classes == nil && r[5].Text() != g.GSeq) {
			return fmt.Errorf("gene %d: got %v, want GLen %d GScore %d", gid, r[:5], wantLen, wantScore)
		}
		glen[gid] = wantLen
	}
	if err := rows.Err(); err != nil {
		return err
	}
	if want := len(d.genes) + len(ck.inserted); n != want {
		return fmt.Errorf("Gene has %d rows after reopen, want %d", n, want)
	}
	if w.classes == nil {
		return nil
	}
	// Protein.PLen is maintained by the dependency rule, so it must follow
	// the last acknowledged GLen of its gene.
	prows, err := db.Query(ctx, "SELECT PID, GID, PLen FROM Protein")
	if err != nil {
		return err
	}
	defer prows.Close()
	n = 0
	for prows.Next() {
		n++
		r := prows.Row().Values
		if want := proteinLen(glen[r[1].Int()]); r[2].Int() != want {
			return fmt.Errorf("protein %d: PLen %d, want %d", r[0].Int(), r[2].Int(), want)
		}
	}
	if err := prows.Err(); err != nil {
		return err
	}
	if n != len(d.prots) {
		return fmt.Errorf("Protein has %d rows after reopen, want %d", n, len(d.prots))
	}
	for gid := range ck.annotated {
		if err := hasNote(db, gid, fmt.Sprintf("curated %d", gid)); err != nil {
			return err
		}
	}
	return nil
}

func hasNote(db *bdbms.DB, gid int64, note string) error {
	rows, err := db.Query(context.Background(), fmt.Sprintf("SELECT GID FROM Gene ANNOTATION(GNotes) WHERE GID = %d", gid))
	if err != nil {
		return err
	}
	defer rows.Close()
	for rows.Next() {
		for _, a := range rows.Row().AnnotationsFlat() {
			if strings.Contains(a.Body, note) {
				return nil
			}
		}
	}
	if err := rows.Err(); err != nil {
		return err
	}
	return fmt.Errorf("gene %d lost its acknowledged annotation %q", gid, note)
}
