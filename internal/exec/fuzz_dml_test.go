package exec

// Equivalence fuzzing under writes: the generated databases and queries of
// fuzz_test.go, with random INSERT/UPDATE/DELETE between the queries. Every
// query is held to the naive reference executor three ways — planned
// (vectorized over the maintained columnar mirror), planned row-at-a-time
// (NoVectorize) and prepared — in three write patterns:
//
//   - committed DML between queries, so the mirror is maintained, never
//     rebuilt, across every mutation kind;
//   - DML of a second session's open transaction, invisible to the
//     snapshot reads, so batched scans fold a non-empty MVCC overlay; the
//     transaction then commits or rolls back (rollback re-inserts deleted
//     rows mid-table through the undo appliers);
//   - snapshot cursors opened before committed DML and drained after it.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bdbms/internal/storage"
)

// dmlGen draws random DML over a fuzz case's tables, keeping primary keys
// unique and values inside the generator's small domains.
type dmlGen struct {
	r      *rand.Rand
	fc     *fuzzCase
	nextPK map[string]int
}

func newDMLGen(r *rand.Rand, fc *fuzzCase) *dmlGen {
	g := &dmlGen{r: r, fc: fc, nextPK: make(map[string]int)}
	for _, ft := range fc.tables {
		g.nextPK[ft.name] = ft.rows + 1
	}
	return g
}

// value renders a random literal of the column's type, NULL one time in ten.
func (g *dmlGen) value(c fuzzColumn) string {
	if g.r.Intn(10) == 0 {
		return "NULL"
	}
	switch c.typ {
	case "INT":
		return fmt.Sprint(g.r.Intn(10))
	case "FLOAT":
		return pick(g.r, []string{"-2.5", "0.0", "1.25", "3.5", "7.75"})
	case "TEXT":
		return "'" + pick(g.r, fuzzTexts) + "'"
	default:
		return pick(g.r, []string{"TRUE", "FALSE"})
	}
}

// where renders a comparison on a random column that matches a few rows.
func (g *dmlGen) where(ft *fuzzTable) string {
	c := pick(g.r, ft.cols)
	switch c.typ {
	case "INT":
		if c.name == ft.pk {
			return fmt.Sprintf("%s = %d", c.name, 1+g.r.Intn(g.nextPK[ft.name]))
		}
		return fmt.Sprintf("%s %s %d", c.name, pick(g.r, []string{"=", "<", ">"}), g.r.Intn(10))
	case "FLOAT":
		return fmt.Sprintf("%s > %s", c.name, pick(g.r, []string{"1.25", "3.5", "7.75"}))
	case "TEXT":
		return fmt.Sprintf("%s = '%s'", c.name, pick(g.r, fuzzTexts))
	default:
		return c.name + " = " + pick(g.r, []string{"TRUE", "FALSE"})
	}
}

// insert renders one INSERT of n random rows into ft.
func (g *dmlGen) insert(ft *fuzzTable, n int) string {
	var rows []string
	for ; n > 0; n-- {
		vals := make([]string, len(ft.cols))
		for i, c := range ft.cols {
			if c.name == ft.pk {
				vals[i] = fmt.Sprint(g.nextPK[ft.name])
				g.nextPK[ft.name]++
			} else {
				vals[i] = g.value(c)
			}
		}
		rows = append(rows, "("+strings.Join(vals, ", ")+")")
	}
	return fmt.Sprintf("INSERT INTO %s VALUES %s", ft.name, strings.Join(rows, ", "))
}

// next returns one random DML statement. Inserts outnumber deletes, so the
// tables shrink slowly instead of emptying.
func (g *dmlGen) next() string {
	ft := pick(g.r, g.fc.tables)
	switch op := g.r.Intn(10); {
	case op < 4:
		return g.insert(ft, 1+g.r.Intn(3))
	case op < 8:
		var c fuzzColumn
		for c = pick(g.r, ft.cols); c.name == ft.pk; c = pick(g.r, ft.cols) {
		}
		return fmt.Sprintf("UPDATE %s SET %s = %s WHERE %s", ft.name, c.name, g.value(c), g.where(ft))
	default:
		return fmt.Sprintf("DELETE FROM %s WHERE %s", ft.name, g.where(ft))
	}
}

// TestSQLEquivalenceFuzzDML is the equivalence suite with DML between and
// behind the queries. Its canaries prove the batched scan ran, and ran over
// a non-empty MVCC overlay.
func TestSQLEquivalenceFuzzDML(t *testing.T) {
	seeds := []int64{41, 42, 43, 44, 45, 46, 47, 48}
	queriesPerSeed := 45
	if testing.Short() {
		seeds = seeds[:3]
		queriesPerSeed = 15
	}
	batchScans.Store(0)
	overlayScans.Store(0)
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed-%d-dml", seed), func(t *testing.T) {
			fuzzDMLSeed(t, seed, queriesPerSeed, 0)
		})
	}
	if batchScans.Load() == 0 {
		t.Error("no generated query ran the vectorized scan; the batched path is untested")
	}
	if overlayScans.Load() == 0 {
		t.Error("no batched scan read through an MVCC overlay; overlay folding is untested")
	}
}

// TestSQLEquivalenceFuzzDMLSpill re-runs DML seeds with a one-byte spill
// budget, so every blocking operator spills on every query while the data
// changes under it.
func TestSQLEquivalenceFuzzDMLSpill(t *testing.T) {
	seeds := []int64{51, 52, 53}
	queriesPerSeed := 30
	if testing.Short() {
		seeds = seeds[:1]
		queriesPerSeed = 10
	}
	spillEvents.Store(0)
	batchScans.Store(0)
	overlayScans.Store(0)
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed-%d-dml-spill", seed), func(t *testing.T) {
			fuzzDMLSeed(t, seed, queriesPerSeed, 1)
		})
	}
	if spillEvents.Load() == 0 {
		t.Error("spill-forcing seeds never spilled")
	}
	if batchScans.Load() == 0 || overlayScans.Load() == 0 {
		t.Errorf("batched scans %d, over an overlay %d; want both > 0", batchScans.Load(), overlayScans.Load())
	}
}

// fuzzDMLSeed runs one generated database through queriesPerSeed queries,
// rotating through the three write patterns of the file comment.
func fuzzDMLSeed(t *testing.T, seed int64, queriesPerSeed, spillBudget int) {
	r := rand.New(rand.NewSource(seed))
	fc := genCase(r)
	s := newSession(t)
	s.User = "admin"
	s.SpillBudget = spillBudget
	for _, stmt := range fc.setup {
		if _, err := s.Exec(stmt); err != nil {
			t.Fatalf("setup %q: %v", stmt, err)
		}
	}
	// The writer is a second session on the same engine, so its open
	// transaction stays invisible to the reader's snapshots.
	w := &Session{Eng: s.Eng, Ann: s.Ann, Prov: s.Prov, Dep: s.Dep, Auth: s.Auth, User: "admin"}
	dml := newDMLGen(r, fc)
	var committed []string // DML applied so far, for the repro script
	// Even seeds grow T1 past one mirror chunk, so maintenance and overlays
	// cross chunk boundaries and re-encode sealed chunks.
	if seed%2 == 0 {
		for n := 0; n < storage.ColChunkRows+500; n += 250 {
			stmt := dml.insert(fc.tables[0], 250)
			if _, err := s.Exec(stmt); err != nil {
				t.Fatalf("seed %d bulk insert: %v", seed, err)
			}
			committed = append(committed, stmt)
		}
	}
	writes := func(what string) []string {
		var stmts []string
		for n := 1 + r.Intn(4); n > 0; n-- {
			stmt := dml.next()
			if _, err := w.Exec(stmt); err != nil {
				t.Fatalf("seed %d %s %q: %v", seed, what, stmt, err)
			}
			stmts = append(stmts, stmt)
		}
		return stmts
	}
	repro := func(query string) string {
		script := append(append([]string(nil), fc.setup...), committed...)
		return reproScript(&fuzzCase{setup: script}, query)
	}
	ctx := context.Background()
	for q := 0; q < queriesPerSeed; q++ {
		g := &queryGen{r: r}
		inline, prepared := g.genQuery(fc)
		switch q % 3 {
		case 0:
			committed = append(committed, writes("DML")...)
			s.NoOptimize = true
			naive, naiveErr := s.Exec(inline)
			s.NoOptimize = false
			checkAgainstNaive(t, s, g, inline, prepared, naive, naiveErr, repro(inline))
		case 1:
			s.NoOptimize = true
			naive, naiveErr := s.Exec(inline)
			s.NoOptimize = false
			if _, err := w.Exec("BEGIN"); err != nil {
				t.Fatal(err)
			}
			pending := writes("open-transaction DML")
			checkAgainstNaive(t, s, g, inline, prepared, naive, naiveErr,
				repro(inline)+"-- run after BEGIN; "+strings.Join(pending, "; ")+" in another session\n")
			if r.Intn(2) == 0 {
				if _, err := w.Exec("COMMIT"); err != nil {
					t.Fatal(err)
				}
				committed = append(committed, pending...)
			} else if _, err := w.Exec("ROLLBACK"); err != nil {
				t.Fatal(err)
			}
		default:
			s.NoOptimize = true
			naive, naiveErr := s.Exec(inline)
			s.NoOptimize = false
			vec, vecErr := s.Query(ctx, inline)
			s.NoVectorize = true
			row, rowErr := s.Query(ctx, inline)
			s.NoVectorize = false
			if naiveErr != nil {
				if vecErr == nil || rowErr == nil {
					t.Fatalf("seed %d query %d: naive rejects (%v) but a cursor opens (%v, %v)\nrepro script:\n%s",
						seed, q, naiveErr, vecErr, rowErr, repro(inline))
				}
				continue
			}
			if vecErr != nil || rowErr != nil {
				t.Fatalf("seed %d query %d: cursor %q: %v / %v\nrepro script:\n%s", seed, q, inline, vecErr, rowErr, repro(inline))
			}
			pending := writes("DML behind open cursors")
			want := canonResult(naive)
			for _, c := range []struct {
				name string
				rows *Rows
			}{{"vectorized", vec}, {"NoVectorize", row}} {
				res, err := c.rows.materialize()
				if err != nil {
					t.Fatalf("seed %d query %d: %s cursor drained after DML: %v", seed, q, c.name, err)
				}
				if got := canonResult(res); got != want {
					t.Fatalf("seed %d query %d: %s cursor held across DML != naive before it\nquery: %s\nDML: %s\n got: %s\nwant: %s\nrepro script:\n%s",
						seed, q, c.name, inline, strings.Join(pending, "; "), got, want, repro(inline))
				}
			}
			committed = append(committed, pending...)
		}
	}
}

// checkAgainstNaive holds the planned, planned row-at-a-time and prepared
// executions of one query to a naive result computed earlier: either all
// paths reject the query, or all return exactly the naive rows.
func checkAgainstNaive(t *testing.T, s *Session, g *queryGen, inline, prepared string, naive *Result, naiveErr error, repro string) {
	t.Helper()
	planned, plannedErr := s.Exec(inline)
	s.NoVectorize = true
	rowPath, rowErr := s.Exec(inline)
	s.NoVectorize = false
	var prepRes *Result
	stmt, prepErr := s.Prepare(prepared)
	if prepErr == nil {
		prepRes, prepErr = stmt.Exec(g.args...)
	}
	if naiveErr != nil {
		if plannedErr == nil || rowErr == nil || prepErr == nil {
			t.Fatalf("naive rejects (%v) but planned/NoVectorize/prepared accept (%v, %v, %v)\nquery: %s\nrepro script:\n%s",
				naiveErr, plannedErr, rowErr, prepErr, inline, repro)
		}
		return
	}
	want := canonResult(naive)
	for _, c := range []struct {
		name string
		res  *Result
		err  error
	}{{"planned", planned, plannedErr}, {"NoVectorize planned", rowPath, rowErr}, {"prepared", prepRes, prepErr}} {
		if c.err != nil {
			t.Fatalf("%s %q: %v\nrepro script:\n%s", c.name, inline, c.err, repro)
		}
		if got := canonResult(c.res); got != want {
			t.Fatalf("%s != naive\nquery: %s\nprepared: %s args %v\n got: %s\nwant: %s\nrepro script:\n%s",
				c.name, inline, prepared, g.args, got, want, repro)
		}
	}
}
