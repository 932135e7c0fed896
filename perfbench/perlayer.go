package main

import (
	"context"
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"bdbms"
	"bdbms/internal/buffer"
	"bdbms/internal/pager"
)

// counters are the engine's public counters at one instant.
type counters struct {
	buf       buffer.Stats
	pgr       pager.Stats
	lsn       uint64
	walBytes  int64
	writeSeq  uint64 // summed over the workload's observed tables
	heapPages int
	annRecs   int
	events    int
	pending   int
	rt        runtimeSnap
}

func (m *measurer) snap() counters {
	db := m.db
	c := counters{
		buf:      db.Storage().BufferStats(),
		pgr:      db.Storage().PagerStats(),
		lsn:      db.Storage().WAL().LastLSN(),
		walBytes: fileSize(m.path + ".wal"),
		annRecs:  db.Annotations().StorageRecords(),
		events:   len(db.Dependencies().Events()),
		pending:  len(db.Authorization().Pending("Gene")),
		rt:       readRuntime(),
	}
	for _, t := range []string{"Gene", "Protein", "Organism"} {
		tbl, err := db.Storage().Table(t)
		if err != nil {
			continue
		}
		c.heapPages += len(tbl.HeapPages())
		for _, o := range m.w.tables {
			if o == t {
				c.writeSeq += tbl.WriteSeq()
			}
		}
	}
	return c
}

// perLayer replays the seeded stream three times, dur each: untraced over
// the wire (counters), traced over the wire through the frame-counting
// relay, and traced on the embedded API (exec and sqlparse spans).
func (m *measurer) perLayer(dur time.Duration) (*output, error) {
	c0 := m.snap()
	pa, err := runPass(m.w.clients(m.cfg.seed, 0, m.d, m.params), m.wire(m.srv.addr()), m.ck, dur, nil)
	if err != nil {
		return nil, err
	}
	c1 := m.snap()

	rl, err := startRelay(m.srv.addr())
	if err != nil {
		return nil, err
	}
	trB := newTracer()
	pb, err := runPass(m.w.clients(m.cfg.seed, 1, m.d, m.params), m.wire(rl.addr()), m.ck, dur, trB)
	rl.close()
	if err != nil {
		return nil, err
	}

	trC := newTracer()
	pc, err := runPass(m.w.clients(m.cfg.seed, 2, m.d, m.params), m.embedded(trC), m.ck, dur, trC)
	if err != nil {
		return nil, err
	}

	out := newOutput(pa, pb, pc)
	set := func(name, unit string, v float64) { out.Metrics[name] = metric{v, unit} }

	opsA := float64(len(pa.recs))
	reads, commits, updates := pa.kinds()
	rowsOut, annsOut := pa.rowsAnns()
	set("storage.buffer_hit_ratio", "ratio", ratio(float64(c1.buf.Hits-c0.buf.Hits), float64(c1.buf.Hits-c0.buf.Hits+c1.buf.Misses-c0.buf.Misses)))
	set("storage.buffer_evictions_per_op", "count", ratio(float64(c1.buf.Evictions-c0.buf.Evictions), opsA))
	set("storage.pager_reads_per_op", "count", ratio(float64(c1.pgr.Reads-c0.pgr.Reads), opsA))
	set("storage.pager_writes_per_op", "count", ratio(float64(c1.pgr.Writes-c0.pgr.Writes), opsA))
	set("storage.heap_pages", "count", float64(c1.heapPages))
	set("storage.writes_between_queries", "count", ratio(float64(c1.writeSeq-c0.writeSeq), reads))
	set("wal.records_per_commit", "count", ratio(float64(c1.lsn-c0.lsn), commits))
	set("wal.bytes_per_commit", "B", ratio(float64(c1.walBytes-c0.walBytes), commits))
	set("annotation.storage_records", "count", float64(c1.annRecs))
	set("annotation.anns_per_row_out", "count", ratio(annsOut, rowsOut))
	set("dependency.events_per_update", "count", ratio(float64(c1.events-c0.events), updates))
	set("authz.pending_ops", "count", float64(c1.pending))
	set("runtime.cpu_us_per_op", "us", ratio(float64((c1.rt.cpu-c0.rt.cpu).Microseconds()), opsA))
	set("runtime.gc_cycles_per_kop", "count", ratio(float64(c1.rt.gcs-c0.rt.gcs)*1000, opsA))
	set("loadgen.late_p90_ms", "ms", percentile(pa.lates(), 0.9))
	set("trace.overhead_ratio", "ratio", ratio(pa.opsPerSec(), pb.opsPerSec()))

	opsB := float64(len(pb.recs))
	set("server.frames_per_op", "count", ratio(float64(rl.framesIn.Load()+rl.framesOut.Load()), opsB))
	set("server.bytes_in_per_op", "B", ratio(float64(rl.bytesIn.Load()), opsB))
	set("server.bytes_out_per_op", "B", ratio(float64(rl.bytesOut.Load()), opsB))

	opsC := float64(len(pc.recs))
	_, commitsC, _ := pc.kinds()
	rowsC, _ := pc.rowsAnns()
	st := selfTimes(trC.spans)
	us := func(name string, per float64) float64 { return ratio(float64(st[name].total.Nanoseconds())/1e3, per) }
	set("sqlparse.parse_us", "us", us("sqlparse.Parse", opsC))
	set("exec.prepare_us", "us", us("Session.Prepare", opsC))
	set("exec.open_us", "us", us("Stmt.Query", opsC))
	set("exec.drain_us", "us", us("Rows.Next", opsC))
	set("exec.rows_out_per_op", "count", ratio(rowsC, opsC))
	set("exec.commit_us", "us", us("Tx.Commit", commitsC))
	set("server.wire_us_per_op", "us", pa.meanServiceUs()-pc.meanServiceUs())
	qerr, err := m.joinQError()
	if err != nil {
		return nil, err
	}
	set("exec.plan_qerror.join", "ratio", qerr)

	fmt.Fprintf(m.log, "passes: untraced %d ops %.1f/s, wire traced %d ops %.1f/s, embedded traced %d ops %.1f/s\n",
		len(pa.recs), pa.opsPerSec(), len(pb.recs), pb.opsPerSec(), len(pc.recs), pc.opsPerSec())
	printSelfTimes(m.log, "wire", trB.spans, len(pb.recs))
	printSelfTimes(m.log, "embedded", trC.spans, len(pc.recs))
	base := filepath.Join(workDir, "spans-"+m.w.name)
	for _, f := range []struct {
		suffix string
		tr     *tracer
	}{{"-wire.jsonl", trB}, {"-embedded.jsonl", trC}} {
		if err := writeSpans(base+f.suffix, f.tr.spans); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(m.log, "spans written to %s-{wire,embedded}.jsonl\n", base)
	return out, nil
}

// kinds counts the pass's reads, committed transactions and updates (the
// writes a dependency rule can cascade from).
func (p *passResult) kinds() (reads, commits, updates float64) {
	for _, r := range p.recs {
		if !r.kind.isWrite() {
			reads++
			continue
		}
		commits++
		if r.kind == opUpdate || r.kind == opCurUpdate {
			updates++
		}
	}
	return reads, commits, updates
}

func (p *passResult) rowsAnns() (rows, anns float64) {
	for _, r := range p.recs {
		rows += float64(r.rows)
		anns += float64(r.anns)
	}
	return rows, anns
}

func (p *passResult) lates() []float64 {
	var out []float64
	for _, r := range p.recs {
		if r.kind.isWrite() && r.late > 0 {
			out = append(out, ms(r.late))
		}
	}
	return out
}

// meanServiceUs is the mean time from send to answer.
func (p *passResult) meanServiceUs() float64 {
	var sum time.Duration
	for _, r := range p.recs {
		sum += r.lat - r.late
	}
	return ratio(float64(sum.Microseconds()), float64(len(p.recs)))
}

var rowsEstimate = regexp.MustCompile(`rows~(\d+)`)

// joinQError is max over the join parameters of max(est/act, act/est) for
// the last rows~N estimate EXPLAIN prints, the join's output, against the
// rows the join actually produces (the sum of the group counts); 0 for
// workloads without the join class.
func (m *measurer) joinQError() (float64, error) {
	var worst float64
	for _, k := range m.w.classes {
		if k != opJoin {
			continue
		}
		for _, x := range m.params[opJoin] {
			est, err := rootEstimate(m.db, "EXPLAIN "+querySQL(op{kind: opJoin, arg: x}))
			if err != nil {
				return 0, err
			}
			var act float64
			for _, g := range m.ck.expJoin[x] {
				act += float64(g[0])
			}
			worst = max(worst, est/act, act/est)
		}
	}
	return worst, nil
}

// rootEstimate returns the last rows~N of an EXPLAIN: the operators after
// it (aggregation, projection) print no estimate.
func rootEstimate(db *bdbms.DB, explain string) (float64, error) {
	rows, err := db.Query(context.Background(), explain)
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	est := -1.0
	for rows.Next() {
		if mm := rowsEstimate.FindStringSubmatch(rows.Row().Values[0].Text()); mm != nil {
			v, _ := strconv.ParseFloat(mm[1], 64) // \d+ always parses
			est = max(v, 1)
		}
	}
	if err := rows.Err(); err != nil {
		return 0, err
	}
	if est < 0 {
		return 0, fmt.Errorf("no rows~N estimate in %q", explain)
	}
	return est, nil
}
