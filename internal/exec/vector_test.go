package exec

import (
	"context"
	"fmt"
	"testing"

	"bdbms/internal/value"
)

// execAll runs one query on all three executors (naive reference, planned
// row-at-a-time, planned vectorized) and asserts they agree, returning the
// vectorized result.
func execAll(t *testing.T, s *Session, query string) *Result {
	t.Helper()
	s.NoOptimize = true
	naive, err := s.Exec(query)
	s.NoOptimize = false
	if err != nil {
		t.Fatalf("naive %q: %v", query, err)
	}
	s.NoVectorize = true
	rowPath, err := s.Exec(query)
	s.NoVectorize = false
	if err != nil {
		t.Fatalf("row path %q: %v", query, err)
	}
	vec, err := s.Exec(query)
	if err != nil {
		t.Fatalf("vectorized %q: %v", query, err)
	}
	want := canonResult(naive)
	if got := canonResult(rowPath); got != want {
		t.Fatalf("row path != naive for %q\n got: %s\nwant: %s", query, got, want)
	}
	if got := canonResult(vec); got != want {
		t.Fatalf("vectorized != naive for %q\n got: %s\nwant: %s", query, got, want)
	}
	return vec
}

// TestSumExactBeyondFloat53 is the regression test for integer SUM/AVG
// exactness: summing int64 values whose total exceeds 2^53 must produce the
// exact integer on every executor. Before the shared aggState, all three
// accumulated in float64 and silently rounded.
func TestSumExactBeyondFloat53(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE Big (ID INT NOT NULL PRIMARY KEY, V INT)`)
	// 2^53 = 9007199254740992; float64 cannot represent 2^53 + 1. Three rows
	// summing to 2^53 + 3 prove exactness: a float64 accumulator lands on an
	// even neighbour instead.
	const big = int64(1) << 53
	vals := []int64{big - 2, 3, 2}
	const want = int64(1)<<53 + 3
	for i, v := range vals {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO Big VALUES (%d, %d)`, i+1, v))
	}
	res := execAll(t, s, `SELECT SUM(V), COUNT(*) FROM Big`)
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(res.Rows))
	}
	got := res.Rows[0].Values[0]
	if got.Type() != value.Int {
		t.Fatalf("SUM type = %v, want exact INT (value %s)", got.Type(), got)
	}
	if got.Int() != want {
		t.Errorf("SUM = %d, want %d (off by %d)", got.Int(), want, got.Int()-want)
	}

	// A FLOAT joining the group demotes the sum to float64 — the documented,
	// pre-existing behaviour — without disturbing other groups.
	mustExec(t, s, `CREATE TABLE Mix (ID INT NOT NULL PRIMARY KEY, G TEXT, V FLOAT)`)
	mustExec(t, s, `INSERT INTO Mix VALUES (1, 'a', 1.5)`)
	mustExec(t, s, `INSERT INTO Mix VALUES (2, 'a', 2.0)`)
	res = execAll(t, s, `SELECT G, SUM(V) FROM Mix GROUP BY G`)
	if got := res.Rows[0].Values[1]; got.Type() != value.Float || got.Float() != 3.5 {
		t.Errorf("float SUM = %s, want 3.5", got)
	}
}

// TestSkewedGroupBySpillTinyBudget is the regression test for the unbounded
// partition re-merge: under a one-byte budget every row triggers a spill
// flush, and with one dominant key nearly every flushed record lands in the
// same partition. The old merge decoded that whole partition into memory;
// the recursive merge folds the dominant key incrementally and re-partitions
// the long tail, so the query must now complete — with exact aggregates and
// first-seen group order.
func TestSkewedGroupBySpillTinyBudget(t *testing.T) {
	s := newSession(t)
	s.SpillBudget = 1
	mustExec(t, s, `CREATE TABLE Skew (ID INT NOT NULL PRIMARY KEY, G TEXT, V INT)`)
	// 400 rows of one hot key interleaved with 100 distinct cold keys.
	const hot, cold = 400, 100
	id := 0
	insert := func(g string, v int) {
		id++
		mustExec(t, s, fmt.Sprintf(`INSERT INTO Skew VALUES (%d, '%s', %d)`, id, g, v))
	}
	wantHotSum := 0
	for i := 0; i < hot; i++ {
		insert("hot", i)
		wantHotSum += i
		if i < cold {
			insert(fmt.Sprintf("cold%03d", i), 1000+i)
		}
	}
	spillEvents.Store(0)
	res := execAll(t, s, `SELECT G, COUNT(*), SUM(V) FROM Skew GROUP BY G`)
	if spillEvents.Load() == 0 {
		t.Fatal("budget 1 never spilled; the test is not exercising the merge")
	}
	if len(res.Rows) != 1+cold {
		t.Fatalf("got %d groups, want %d", len(res.Rows), 1+cold)
	}
	// First-seen order puts the hot group first.
	first := res.Rows[0]
	if first.Values[0].Text() != "hot" {
		t.Errorf("first group = %s, want hot (first-seen order)", first.Values[0])
	}
	if first.Values[1].Int() != hot || first.Values[2].Int() != int64(wantHotSum) {
		t.Errorf("hot group = (%s, %s), want (%d, %d)", first.Values[1], first.Values[2], hot, wantHotSum)
	}
}

// TestVectorizedSnapshotAcrossWrites pins batched reads under writes: a
// cursor opened before a write keeps reading its snapshot's chunks, a query
// after it reads the maintained mirror, and a snapshot behind an open
// transaction's writes reads them through its overlay, still batched.
func TestVectorizedSnapshotAcrossWrites(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE Ev (ID INT NOT NULL PRIMARY KEY, G TEXT, V INT)`)
	for i := 1; i <= 10; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO Ev VALUES (%d, 'g%d', %d)`, i, i%3, i))
	}
	// Warm the mirror.
	execAll(t, s, `SELECT G, COUNT(*) FROM Ev GROUP BY G`)

	// Open a cursor (pinning a snapshot), then delete a row before draining.
	rows, err := s.Query(context.Background(), `SELECT ID FROM Ev`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	mustExec(t, s, `DELETE FROM Ev WHERE ID = 10`)
	n := 1
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("snapshot cursor saw %d rows, want 10 (pre-delete state)", n)
	}
	// After the write, a fresh query agrees across executors on the new state.
	res := execAll(t, s, `SELECT COUNT(*) FROM Ev`)
	if got := res.Rows[0].Values[0].Int(); got != 9 {
		t.Errorf("post-delete COUNT(*) = %d, want 9", got)
	}

	// Another session's open transaction deletes, updates and inserts; the
	// snapshot reads fold those writes back out of the batches.
	w := &Session{Eng: s.Eng, Ann: s.Ann, Dep: s.Dep, Auth: s.Auth, User: s.User}
	for _, stmt := range []string{`BEGIN`, `DELETE FROM Ev WHERE ID = 2`, `UPDATE Ev SET V = 100 WHERE ID = 5`, `INSERT INTO Ev VALUES (11, 'g9', 11)`} {
		mustExec(t, w, stmt)
	}
	batchScans.Store(0)
	overlayScans.Store(0)
	res = mustExec(t, s, `SELECT COUNT(*), SUM(V) FROM Ev`)
	if got := res.Rows[0].Values[0].Int(); got != 9 {
		t.Errorf("COUNT(*) behind an open transaction = %d, want 9", got)
	}
	if got := res.Rows[0].Values[1].Int(); got != 45 {
		t.Errorf("SUM(V) behind an open transaction = %d, want 45", got)
	}
	if batchScans.Load() != 1 || overlayScans.Load() != 1 {
		t.Errorf("batched scans %d, over an overlay %d; want 1 and 1", batchScans.Load(), overlayScans.Load())
	}
	mustExec(t, w, `ROLLBACK`)
	res = execAll(t, s, `SELECT COUNT(*), SUM(V) FROM Ev`)
	if got := res.Rows[0].Values[1].Int(); got != 45 {
		t.Errorf("SUM(V) after rollback = %d, want 45", got)
	}
}

// TestJoinLeavesBatchScansUnchanged pins that join queries, which run on the
// row path, never ask for a batch scan — so they neither build nor refresh a
// columnar mirror nobody reads.
func TestJoinLeavesBatchScansUnchanged(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE L (ID INT NOT NULL PRIMARY KEY, K INT)`)
	mustExec(t, s, `CREATE TABLE R (ID INT NOT NULL PRIMARY KEY, K INT)`)
	for i := 1; i <= 20; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO L VALUES (%d, %d)`, i, i%4))
		mustExec(t, s, fmt.Sprintf(`INSERT INTO R VALUES (%d, %d)`, i, i%5))
	}
	batchScans.Store(0)
	res := execAll(t, s, `SELECT L.ID, R.ID FROM L, R WHERE L.K = R.K`)
	if len(res.Rows) == 0 {
		t.Fatal("join returned no rows")
	}
	if n := batchScans.Load(); n != 0 {
		t.Errorf("join bumped batchScans to %d, want 0", n)
	}
}
