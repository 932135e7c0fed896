package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"bdbms/internal/catalog"
	"bdbms/internal/undo"
	"bdbms/internal/value"
)

func columnarSchema(name string) *catalog.Schema {
	return &catalog.Schema{
		Name: name,
		Columns: []catalog.Column{
			{Name: "ID", Type: value.Int, NotNull: true},
			{Name: "N", Type: value.Int},
			{Name: "F", Type: value.Float},
			{Name: "T", Type: value.Text},
			{Name: "B", Type: value.Bool},
		},
		PrimaryKey: "ID",
	}
}

// randColumnarRow draws one row over a mix of encodings: low-cardinality text
// (dictionary + RLE candidates), occasional NULLs everywhere, and a boxed
// BOOL column.
func randColumnarRow(rng *rand.Rand, id int64) value.Row {
	maybeNull := func(v value.Value) value.Value {
		if rng.Intn(7) == 0 {
			return value.NewNull()
		}
		return v
	}
	return value.Row{
		value.NewInt(id),
		maybeNull(value.NewInt(rng.Int63n(1000) - 500)),
		maybeNull(value.NewFloat(float64(rng.Intn(100)) / 4)),
		maybeNull(value.NewText(fmt.Sprintf("tag%02d", rng.Intn(12)))),
		maybeNull(value.NewBool(rng.Intn(2) == 0)),
	}
}

// mirrorChunks returns the table's current mirror chunk list, building the
// mirror on first use; ok is false when the table cannot be mirrored.
func mirrorChunks(tbl *Table) (chunks []*ColChunk, ok bool) {
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	m := tbl.mirrorLocked()
	if m == nil {
		return nil, false
	}
	return m.chunks(), true
}

// idRow is one decoded mirror row.
type idRow struct {
	id  int64
	row value.Row
}

// decodeChunks reads every row back out of the chunks, in chunk order,
// through the public vector surface (DecodeCodes/DecodeValid), reboxing
// values the way the executor does.
func decodeChunks(t *testing.T, chunks []*ColChunk) []idRow {
	t.Helper()
	var out []idRow
	for _, ch := range chunks {
		n := ch.Rows()
		base := len(out)
		for i := 0; i < n; i++ {
			out = append(out, idRow{id: ch.RowIDs[i], row: make(value.Row, len(ch.Cols))})
		}
		for c := range ch.Cols {
			col := &ch.Cols[c]
			codes := col.DecodeCodes(nil)
			valid := col.DecodeValid(nil)
			if valid != nil && len(valid) != n {
				t.Fatalf("col %d: validity length %d, want %d", c, len(valid), n)
			}
			for i := 0; i < n; i++ {
				var v value.Value
				if valid == nil || valid[i] != 0 {
					switch col.Kind {
					case ColInt:
						v = value.NewInt(col.Ints[i])
					case ColFloat:
						v = value.NewFloat(col.Floats[i])
					case ColText:
						s := ""
						if col.Dict != nil {
							s = col.Dict[codes[i]]
						} else {
							s = col.Strs[i]
						}
						if col.Type == value.Sequence {
							v = value.NewSequence(s)
						} else {
							v = value.NewText(s)
						}
					default:
						v = col.Vals[i]
					}
				}
				out[base+i].row[c] = v
			}
		}
	}
	return out
}

// decodeColumnar decodes a mirror into a RowID-keyed map.
func decodeColumnar(t *testing.T, chunks []*ColChunk) map[int64]value.Row {
	t.Helper()
	out := make(map[int64]value.Row)
	for _, r := range decodeChunks(t, chunks) {
		out[r.id] = r.row
	}
	return out
}

// sameRows fails unless got and want hold the same RowIDs, in the same
// order, with identical values and types.
func sameRows(t *testing.T, what string, got, want []idRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.id != w.id {
			t.Fatalf("%s: row %d has RowID %d, want %d", what, i, g.id, w.id)
		}
		if len(g.row) != len(w.row) {
			t.Fatalf("%s: RowID %d has %d columns, want %d", what, w.id, len(g.row), len(w.row))
		}
		for c := range w.row {
			if g.row[c] == w.row[c] {
				continue
			}
			if g.row[c].String() != w.row[c].String() || g.row[c].Type() != w.row[c].Type() {
				t.Fatalf("%s: RowID %d col %d = %s (%v), want %s (%v)",
					what, w.id, c, g.row[c], g.row[c].Type(), w.row[c], w.row[c].Type())
			}
		}
	}
}

// TestColumnarMirrorRoundTrip builds the columnar mirror of a randomly
// populated table and asserts every row decodes back identically to the heap
// — across INT/FLOAT/TEXT/BOOL columns, NULLs, dictionary and RLE encodings,
// and multiple chunks.
func TestColumnarMirrorRoundTrip(t *testing.T) {
	e := NewMemoryEngine()
	tbl, err := e.CreateTable(columnarSchema("Ev"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	nRows := ColChunkRows*2 + 137 // three chunks, last one partial
	want := make(map[int64]value.Row, nRows)
	for i := 0; i < nRows; i++ {
		row := randColumnarRow(rng, int64(i+1))
		id, err := tbl.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = row
	}
	cd, ok := mirrorChunks(tbl)
	if !ok {
		t.Fatal("no mirror for a small table")
	}
	if len(cd) != 3 {
		t.Fatalf("got %d chunks, want 3", len(cd))
	}
	got := decodeColumnar(t, cd)
	if len(got) != nRows {
		t.Fatalf("decoded %d rows, want %d", len(got), nRows)
	}
	for id, wrow := range want {
		grow, ok := got[id]
		if !ok {
			t.Fatalf("row %d missing from mirror", id)
		}
		for c := range wrow {
			w, g := wrow[c], grow[c]
			if w.String() != g.String() || w.Type() != g.Type() {
				t.Fatalf("row %d col %d: mirror has %s (%v), heap has %s (%v)",
					id, c, g, g.Type(), w, w.Type())
			}
		}
	}
	// The dictionary column must actually have dictionary-coded: 12 distinct
	// tags over 1024 rows is far under the 255-entry bound.
	if dict := cd[0].Cols[3].Dict; dict == nil {
		t.Error("low-cardinality text column was not dictionary-coded")
	}
}

// TestColumnarMirrorInvalidation pins how a write invalidates the cached
// mirror view: the view is reused while the heap is untouched; every mutation
// kind bumps WriteSeq and yields a new view that reflects the heap, re-encodes
// only the chunk it touched, and leaves every view handed out earlier as it
// was.
func TestColumnarMirrorInvalidation(t *testing.T) {
	e := NewMemoryEngine()
	tbl, err := e.CreateTable(columnarSchema("Ev"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	var ids []int64
	for i := 0; i < ColChunkRows*2+50; i++ {
		id, err := tbl.Insert(randColumnarRow(rng, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	cd1, _ := mirrorChunks(tbl)
	// The open tail's chunk is made per chunk list, so the same tail
	// pointer proves the cached list was reused.
	if cd2, _ := mirrorChunks(tbl); cd2[len(cd2)-1] != cd1[len(cd1)-1] {
		t.Error("mirror chunk list rebuilt with no intervening write")
	}
	before := decodeChunks(t, cd1)
	seq := tbl.WriteSeq()
	if err := tbl.Update(ids[3], randColumnarRow(rng, 9001)); err != nil {
		t.Fatal(err)
	}
	if tbl.WriteSeq() == seq {
		t.Fatal("Update did not bump WriteSeq")
	}
	cd3, _ := mirrorChunks(tbl)
	if got := decodeColumnar(t, cd3); got[ids[3]][0].Int() != 9001 {
		t.Errorf("mirror missed the update: %s", got[ids[3]][0])
	}
	if cd3[0] == cd1[0] {
		t.Error("updated chunk was not re-encoded copy-on-write")
	}
	// The last chunk is the open tail, whose view is rebuilt per write.
	for i := 1; i < len(cd1)-1; i++ {
		if cd3[i] != cd1[i] {
			t.Errorf("chunk %d was rebuilt although the update did not touch it", i)
		}
	}
	sameRows(t, "view held across the update", decodeChunks(t, cd1), before)
	seq = tbl.WriteSeq()
	if err := tbl.Delete(ids[ColChunkRows+7]); err != nil {
		t.Fatal(err)
	}
	if tbl.WriteSeq() == seq {
		t.Fatal("Delete did not bump WriteSeq")
	}
	cd4, _ := mirrorChunks(tbl)
	if _, ok := decodeColumnar(t, cd4)[ids[ColChunkRows+7]]; ok {
		t.Error("mirror still holds the deleted row")
	}
	if cd4[0] != cd3[0] || cd4[1] == cd3[1] {
		t.Error("delete did not re-encode exactly the chunk holding the row")
	}

	// Snapshot handshake: a snapshot opened now sees the current heap; after
	// one more committed write frame (the executor's auto-commit shape —
	// version entries are only recorded inside frames) it must not.
	snap := e.NewSnapshot()
	defer snap.Close()
	if !snap.SeesCurrentHeap(tbl) {
		t.Error("fresh snapshot does not see the current heap")
	}
	m := e.BeginWrite()
	if _, err := tbl.Insert(randColumnarRow(rng, 1<<40)); err != nil {
		t.Fatal(err)
	}
	e.EndWrite(m)
	if snap.SeesCurrentHeap(tbl) {
		t.Error("snapshot still claims to see the heap after a newer committed write")
	}
}

// heapRows reads the live table row by row, in RowID order.
func heapRows(t *testing.T, tbl *Table) []idRow {
	t.Helper()
	var out []idRow
	if err := tbl.Scan(func(id int64, row value.Row) bool {
		out = append(out, idRow{id: id, row: row})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkMaintainedMirror asserts the maintained mirror decodes row for row
// equal to a mirror built fresh from the heap (which
// TestColumnarMirrorRoundTrip holds to the heap itself).
func checkMaintainedMirror(t *testing.T, tbl *Table, what string) {
	t.Helper()
	cd, ok := mirrorChunks(tbl)
	if !ok {
		t.Fatalf("%s: mirror dropped", what)
	}
	for i, ch := range cd {
		if ch.Rows() == 0 {
			t.Fatalf("%s: chunk %d is empty", what, i)
		}
	}
	maintained := decodeChunks(t, cd)
	m := tbl.mirror.Swap(nil)
	fresh, _ := mirrorChunks(tbl)
	tbl.mirror.Store(m)
	sameRows(t, what+": maintained vs fresh build", maintained, decodeChunks(t, fresh))
}

// TestColumnarMirrorMaintainedMatchesRebuild is the property test for mirror
// maintenance: over seeded random sequences of inserts, multi-row inserts
// that seal tail chunks, updates, deletes (single and in runs), rolled-back mutation batches and Recover* replays, the
// maintained mirror must after every step decode row for row equal to a
// fresh build from the heap — and every view handed out before a step must
// still decode exactly as it did.
func TestColumnarMirrorMaintainedMatchesRebuild(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			e := NewMemoryEngine()
			tbl, err := e.CreateTable(columnarSchema("Ev"))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			nextPK := int64(1)
			insert := func() {
				if _, err := tbl.Insert(randColumnarRow(rng, nextPK)); err != nil {
					t.Fatal(err)
				}
				nextPK++
			}
			randomLive := func() (int64, bool) {
				ids := tbl.RowIDs()
				if len(ids) == 0 {
					return 0, false
				}
				return ids[rng.Intn(len(ids))], true
			}
			update := func() {
				if id, ok := randomLive(); ok {
					row, err := tbl.Get(id)
					if err != nil {
						t.Fatal(err)
					}
					next := randColumnarRow(rng, row[0].Int())
					if err := tbl.Update(id, next); err != nil {
						t.Fatal(err)
					}
				}
			}
			var deleted []idRow // for Recover* replays of mid-table inserts
			del := func() {
				if id, ok := randomLive(); ok {
					row, err := tbl.Get(id)
					if err != nil {
						t.Fatal(err)
					}
					if err := tbl.Delete(id); err != nil {
						t.Fatal(err)
					}
					deleted = append(deleted, idRow{id: id, row: row})
				}
			}
			for i := 0; i < ColChunkRows*2+300; i++ {
				insert()
			}
			mirrorChunks(tbl)
			for step := 0; step < 100; step++ {
				held, _ := mirrorChunks(tbl)
				heldRows := decodeChunks(t, held)
				var what string
				switch op := rng.Intn(8); op {
				case 0:
					what = "insert"
					insert()
				case 1:
					what = "multi-row insert"
					for n := 1 + rng.Intn(ColChunkRows/2+200); n > 0; n-- {
						insert()
					}
				case 2:
					what = "update"
					update()
				case 3:
					what = "delete"
					del()
				case 4:
					what = "delete run"
					ids := tbl.RowIDs()
					if len(ids) > 0 {
						lo := rng.Intn(len(ids))
						for _, id := range ids[lo:min(len(ids), lo+rng.Intn(ColChunkRows/2+100))] {
							if err := tbl.Delete(id); err != nil {
								t.Fatal(err)
							}
						}
					}
				case 5:
					what = "rollback"
					u := undo.New()
					e.SetUndo(u)
					for n := 1 + rng.Intn(20); n > 0; n-- {
						switch rng.Intn(3) {
						case 0:
							insert()
						case 1:
							update()
						default:
							del()
						}
					}
					e.SetUndo(nil)
					if err := u.Rollback(); err != nil {
						t.Fatal(err)
					}
				case 6:
					what = "recover insert (mid-table)"
					if len(deleted) > 0 {
						k := rng.Intn(len(deleted))
						r := deleted[k]
						deleted = append(deleted[:k], deleted[k+1:]...)
						if err := tbl.RecoverInsert(r.id, r.row); err != nil {
							t.Fatal(err)
						}
					}
				default:
					what = "recover update/delete"
					if id, ok := randomLive(); ok {
						row, err := tbl.Get(id)
						if err != nil {
							t.Fatal(err)
						}
						if rng.Intn(2) == 0 {
							err = tbl.RecoverUpdate(id, randColumnarRow(rng, row[0].Int()))
						} else {
							err = tbl.RecoverDelete(id)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				checkMaintainedMirror(t, tbl, fmt.Sprintf("step %d (%s)", step, what))
				sameRows(t, fmt.Sprintf("step %d (%s): view held across it", step, what),
					decodeChunks(t, held), heldRows)
			}
		})
	}
}

// snapshotRowScan reads the table through the snapshot the way the
// row-at-a-time scan does: every candidate RowID, ascending, resolved by Get.
func snapshotRowScan(t *testing.T, snap *Snapshot, tbl *Table) []idRow {
	t.Helper()
	var out []idRow
	for _, id := range snap.RowIDs(tbl) {
		row, err := snap.Get(tbl, id)
		if errors.Is(err, ErrRowNotFound) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, idRow{id: id, row: row})
	}
	return out
}

// scanChunks decodes every chunk a ColScan yields, as the executor reads
// them.
func scanChunks(t *testing.T, cs *ColScan) []idRow {
	t.Helper()
	chunks := make([]*ColChunk, cs.NumChunks())
	for i := range chunks {
		chunks[i] = cs.Chunk(i)
	}
	return decodeChunks(t, chunks)
}

// TestColumnarScanOverlayMatchesSnapshotRowScan opens snapshots, applies
// writes behind them (updates, deletes — including runs that empty whole
// chunks and every row — inserts at the tail and in mid-table, and writes of
// a frame still in flight when the snapshot opened) and checks that the batch
// scan's chunks equal the snapshot's row scan: same values, RowIDs and
// order.
func TestColumnarScanOverlayMatchesSnapshotRowScan(t *testing.T) {
	e := NewMemoryEngine()
	tbl, err := e.CreateTable(columnarSchema("Ev"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	nextPK := int64(1)
	for i := 0; i < ColChunkRows*3+10; i++ {
		if _, err := tbl.Insert(randColumnarRow(rng, nextPK)); err != nil {
			t.Fatal(err)
		}
		nextPK++
	}
	mirrorChunks(tbl)
	writes := func(n int) {
		for ; n > 0; n-- {
			ids := tbl.RowIDs()
			switch op := rng.Intn(4); {
			case op == 0 || len(ids) == 0:
				if _, err := tbl.Insert(randColumnarRow(rng, nextPK)); err != nil {
					t.Fatal(err)
				}
				nextPK++
			case op == 1:
				id := ids[rng.Intn(len(ids))]
				row, _ := tbl.Get(id)
				if err := tbl.Update(id, randColumnarRow(rng, row[0].Int())); err != nil {
					t.Fatal(err)
				}
			case op == 2:
				lo := rng.Intn(len(ids))
				for _, id := range ids[lo:min(len(ids), lo+ColChunkRows+rng.Intn(50))] {
					if err := tbl.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
			default:
				if err := tbl.Delete(ids[rng.Intn(len(ids))]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// frame runs n writes as one write frame. A rolled-back frame restores
	// its deleted rows through RecoverInsert — mid-table inserts into the
	// mirror — while snapshots keep reading the frame's version entries.
	frame := func(n int, rollback bool) {
		m := e.BeginWrite()
		u := undo.New()
		if rollback {
			e.SetUndo(u)
		}
		writes(n)
		e.SetUndo(nil)
		if err := u.Rollback(); err != nil {
			t.Fatal(err)
		}
		e.EndWrite(m)
	}
	check := func(what string, snap *Snapshot, want []idRow) {
		t.Helper()
		cs := snap.ColumnarScan(tbl)
		if cs == nil {
			t.Fatalf("%s: no columnar scan", what)
		}
		if !cs.Overlaid() {
			t.Fatalf("%s: writes behind the snapshot left no overlay", what)
		}
		sameRows(t, what+": batch scan vs row scan", scanChunks(t, cs), snapshotRowScan(t, snap, tbl))
		sameRows(t, what+": batch scan vs state at snapshot", scanChunks(t, cs), want)
	}
	for round := 0; round < 25; round++ {
		snap := e.NewSnapshot()
		want := heapRows(t, tbl)
		for f := 1 + rng.Intn(3); f > 0; f-- {
			frame(1+rng.Intn(8), rng.Intn(4) == 0)
		}
		check(fmt.Sprintf("round %d", round), snap, want)
		snap.Close()
	}

	// A frame in flight when the snapshot opens is invisible to it, both
	// the writes it made before and after.
	m := e.BeginWrite()
	want := heapRows(t, tbl)
	writes(3)
	snap := e.NewSnapshot()
	writes(3)
	check("in-flight frame", snap, want)
	e.EndWrite(m)
	snap.Close()

	// Every row deleted behind the snapshot: the scan restores them all.
	snap = e.NewSnapshot()
	want = heapRows(t, tbl)
	m = e.BeginWrite()
	for _, id := range tbl.RowIDs() {
		if err := tbl.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	e.EndWrite(m)
	if cd, _ := mirrorChunks(tbl); len(cd) != 0 {
		t.Fatalf("empty table still has %d chunks", len(cd))
	}
	check("all rows deleted", snap, want)
	snap.Close()
}

// TestColumnarScanConcurrentWriters races snapshot batch scans against a
// writer that appends to the open tail, re-encodes chunks and deletes in
// write frames. Every scan, decoded while the writer keeps going, must equal
// the same snapshot's row scan; -race checks the lock-free reads of shared
// chunks and tail vectors.
func TestColumnarScanConcurrentWriters(t *testing.T) {
	e := NewMemoryEngine()
	tbl, err := e.CreateTable(columnarSchema("Ev"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < ColChunkRows+500; i++ {
		if _, err := tbl.Insert(randColumnarRow(rng, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	mirrorChunks(tbl)
	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		wrng := rand.New(rand.NewSource(32))
		pk := int64(ColChunkRows + 501)
		for {
			select {
			case <-stop:
				writerDone <- nil
				return
			default:
			}
			m := e.BeginWrite()
			var err error
			ids := tbl.RowIDs()
			switch op := wrng.Intn(4); {
			case op < 2 || len(ids) == 0:
				_, err = tbl.Insert(randColumnarRow(wrng, pk))
				pk++
			case op == 2:
				id := ids[wrng.Intn(len(ids))]
				err = tbl.Update(id, randColumnarRow(wrng, pk))
				pk++
			default:
				err = tbl.Delete(ids[wrng.Intn(len(ids))])
			}
			e.EndWrite(m)
			if err != nil {
				writerDone <- err
				return
			}
		}
	}()
	for i := 0; i < 40; i++ {
		snap := e.NewSnapshot()
		cs := snap.ColumnarScan(tbl)
		if cs == nil {
			t.Fatal("no columnar scan")
		}
		got := scanChunks(t, cs)
		sameRows(t, fmt.Sprintf("scan %d", i), got, snapshotRowScan(t, snap, tbl))
		snap.Close()
	}
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
}
