package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"bdbms"
	"bdbms/internal/value"
)

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.9, 7},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9.1},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.25, 3.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{3, 1, 2}, 0, 1},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestGeomeanAndRatio(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
	if geomean(nil) != 0 || ratio(1, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Error("empty geomean or zero-base ratio is not 0")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "a", Start: 20, End: 50, Parent: 0},  // overlaps the first child
		{Name: "b", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "c", Start: 25, End: 28, Parent: 1},  // grandchild
		{Name: "d", Start: 40, End: -1, Parent: 0},  // never ended
		{Name: "op", Start: 200, End: 210, Parent: -1},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		// covered by children: [10,50] and [90,100] = 50
		"op": {n: 2, total: 110, self: 50 + 10},
		"a":  {n: 2, total: 50, self: 17 + 30},
		"b":  {n: 1, total: 30, self: 30},
		"c":  {n: 1, total: 3, self: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %+v, want %+v", got, want)
	}
	if c := coveredNs([][2]int64{{5, 8}, {0, 3}, {2, 4}}, 1, 7); c != 5 {
		t.Errorf("coveredNs = %d, want 5 ([1,4] and [5,7])", c)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", -1, tr.newReq()); id != -1 {
		t.Fatalf("nil tracer begin = %d", id)
	}
	tr.end(-1)
	tr = newTracer()
	root := tr.begin("op", -1, tr.newReq())
	tr.end(tr.begin("child", root, 1))
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].End < tr.spans[1].End {
		t.Errorf("spans = %+v", tr.spans)
	}
}

func TestSeedReproducesInputs(t *testing.T) {
	sz := sizes{genes: 300, protsPerGene: 2, orgs: 7, seqLen: 16, rowAnns: 20}
	a, b := genDataset(42, sz), genDataset(42, sz)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed generated two different datasets")
	}
	if reflect.DeepEqual(a, genDataset(43, sz)) {
		t.Fatal("two seeds generated the same dataset")
	}
	if !reflect.DeepEqual(queryParams(42, a), queryParams(42, b)) {
		t.Fatal("one seed generated two parameter sets")
	}
	streams := func(seed int64) []op {
		var ops []op
		o := newOLTPStream(seed, 1, 2, len(a.genes))
		q := newQueryStream(analyticsClasses, queryParams(seed, a))
		c := newCuratorStream(seed, len(a.genes), 1000)
		for i := 0; i < 200; i++ {
			ops = append(ops, o.next(), q.next(), c.next())
		}
		return ops
	}
	if !reflect.DeepEqual(streams(42), streams(42)) {
		t.Fatal("one seed generated two operation streams")
	}
	if reflect.DeepEqual(streams(42), streams(43)) {
		t.Fatal("two seeds generated the same operation stream")
	}
}

func TestOLTPStreamShape(t *testing.T) {
	s := newOLTPStream(7, 1, 2, 1000)
	var reads, writes int
	for i := 0; i < 10000; i++ {
		o := s.next()
		if o.key < 0 || o.key >= 1000 {
			t.Fatalf("key %d out of range", o.key)
		}
		if o.kind == opUpdate {
			writes++
			if o.key%2 != 1 {
				t.Fatalf("connection 1 updates key %d it does not own", o.key)
			}
		} else {
			reads++
		}
	}
	if writes < 800 || writes > 1200 {
		t.Errorf("%d updates in 10000 ops, want about 10%%", writes)
	}
}

// tinyDB loads a small annotated database in memory.
func tinyDB(t *testing.T, curation bool) (*bdbms.DB, *dataset, map[opKind][]int64) {
	t.Helper()
	d := genDataset(5, sizes{genes: 400, protsPerGene: 2, orgs: annotatedOrgs, rowAnns: 30})
	db := bdbms.Open()
	t.Cleanup(func() { db.Close() })
	if err := loadAnnotated(db, d); err != nil {
		t.Fatal(err)
	}
	if curation {
		if err := enableCuration(db); err != nil {
			t.Fatal(err)
		}
	}
	return db, d, queryParams(5, d)
}

func TestChecksAcceptEngineAnswers(t *testing.T) {
	db, d, params := tinyDB(t, false)
	ck := newChecker(d, params, false)
	ex, err := newEmbedExec(db, userAnalyst, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range analyticsClasses {
		ps := params[k]
		if len(ps) == 0 {
			ps = []int64{0}
		}
		for _, arg := range ps {
			o := op{kind: k, arg: arg}
			if rec, err := execOne(ex, o, ck, nil, time.Time{}); err != nil || !rec.ok {
				t.Errorf("%s(%d): %v", k, arg, err)
			}
		}
	}
}

func TestChecksRejectWrongAnswers(t *testing.T) {
	d := genDataset(5, sizes{genes: 50, protsPerGene: 2, orgs: 3, rowAnns: 5})
	params := queryParams(5, d)
	ck := newChecker(d, params, false)
	g := d.genes[3]
	row := value.Row{value.NewInt(g.GID), value.NewText(g.GName), value.NewInt(g.OID), value.NewInt(g.GLen), value.NewInt(g.GScore), value.NewText(g.GSeq)}
	if err := ck.read(op{kind: opPoint, key: 3}, &result{rows: []value.Row{row}}, 0, 0); err != nil {
		t.Fatalf("right point row rejected: %v", err)
	}
	bad := append(value.Row(nil), row...)
	bad[1] = value.NewText("other")
	if ck.read(op{kind: opPoint, key: 3}, &result{rows: []value.Row{bad}}, 0, 0) == nil {
		t.Error("wrong point row accepted")
	}
	x := params[opScanAgg][0]
	e := ck.expScan[x]
	agg := func(count int64) *result {
		return &result{rows: []value.Row{{value.NewInt(count), value.NewInt(e[1]), value.NewInt(e[2]), value.NewInt(e[3])}}}
	}
	if ck.read(op{kind: opScanAgg, arg: x}, agg(e[0]+1), 0, 0) == nil {
		t.Error("wrong analytics count accepted")
	}
	ck.curation = true
	if err := ck.read(op{kind: opScanAgg, arg: x}, agg(e[0]+1), 1, 2); err != nil {
		t.Errorf("curation count inside the insert bracket rejected: %v", err)
	}
	if ck.read(op{kind: opScanAgg, arg: x}, agg(e[0]+3), 1, 2) == nil {
		t.Error("curation count above the sent inserts accepted")
	}
	if ck.write(op{kind: opCurUpdate, key: 1, arg: 9}, &result{affected: 0}) == nil {
		t.Error("update affecting no row accepted")
	}
}

func TestCurationPassAndDurability(t *testing.T) {
	db, d, params := tinyDB(t, true)
	ck := newChecker(d, params, true)
	w := workloads["curation"]
	srv, err := serve(db)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := startRelay(srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(s clientSpec) (executor, error) { return dialWire(rl.addr(), s.user, s.prepared) }
	tr := newTracer()
	p, err := runPass(w.clients(5, 0, d, params), mk, ck, 400*time.Millisecond, tr)
	rl.close()
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		t.Fatal(err)
	}
	if p.count(false) != 0 || p.count(true) == 0 {
		t.Fatalf("pass: %d ok, %d failed: %v", p.count(true), p.count(false), p.errs)
	}
	if rl.framesIn.Load() == 0 || rl.bytesOut.Load() == 0 {
		t.Error("relay counted no traffic")
	}
	if st := selfTimes(tr.spans); st["Conn.Query"].n == 0 {
		t.Errorf("no client-call spans: %v", st)
	}
	if err := w.checkDurable(db, d, ck); err != nil {
		t.Fatalf("durability check on the live database: %v", err)
	}
	// A lost acknowledged write must fail the check.
	ck.glen[0] = d.genes[0].GLen + 1
	if w.checkDurable(db, d, ck) == nil {
		t.Error("missing acknowledged update not detected")
	}
}
