package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"bdbms/internal/annotation"
	"bdbms/internal/dependency"
	"bdbms/internal/sqlparse"
	"bdbms/internal/storage"
	"bdbms/internal/value"
)

// This file is the query planner in front of the streaming executor. It
// decomposes the WHERE clause into AND-conjuncts and decides, per conjunct,
// where in the pipeline it runs:
//
//   - single-table conjuncts are pushed below the join into the table scan;
//     when such a conjunct is an equality or range comparison against a
//     constant on an indexed column (primary key or CREATE INDEX column),
//     the scan probes the B+-tree instead of walking the heap;
//   - equality conjuncts between columns of two different tables become the
//     keys of a hash equi-join; sources with no connecting equality fall
//     back to a block nested-loop cross join;
//   - everything else (conjuncts spanning several tables, aggregates,
//     unresolvable references) is evaluated as a residual filter above the
//     join it depends on.
//
// Pushed predicates that drive an index probe are re-applied as scan filters:
// the probe only needs to produce a superset of the matching RowIDs, which
// keeps the bound arithmetic below simple and safe.
//
// Result equivalence with the naive executor holds for every query that
// evaluates without error. Error behavior on ill-typed queries can differ:
// pushing a conjunct changes which rows it is evaluated against, so a
// type-mismatch error may surface from a planned scan where the naive
// cross product happened to be empty (and a residual conjunct's resolution
// error may be suppressed when no rows survive the join). This is the
// standard pushdown tradeoff; SQL leaves predicate evaluation order
// unspecified.

var errUnresolvedSlot = errors.New("exec: internal: unresolved predicate slot")

// compareClass groups value types that Compare treats as one domain.
type compareClass int

const (
	classOther compareClass = iota
	classNumeric
	classString
	classBool
	classTime
)

func classOf(t value.Type) compareClass {
	switch t {
	case value.Int, value.Float:
		return classNumeric
	case value.Text, value.Sequence:
		return classString
	case value.Bool:
		return classBool
	case value.Timestamp:
		return classTime
	default:
		return classOther
	}
}

// accessKind selects how a source's RowIDs are produced.
type accessKind int

const (
	accessFullScan accessKind = iota
	accessIndexEq
	accessIndexRange
	// accessIndexEqParam is an equality probe whose comparison value contains
	// a placeholder: the probe key is computed from the bound parameters at
	// execution time, so a prepared statement keeps its index plan across
	// re-executions with different arguments.
	accessIndexEqParam
)

// accessPath describes the index probe of one source, when it has one.
type accessPath struct {
	kind     accessKind
	column   string
	eq       value.Value
	eqExpr   sqlparse.Expr // deferred probe value (accessIndexEqParam)
	lo, hi   value.Value   // NULL = unbounded
	loStrict bool
	hiStrict bool
}

// sourcePlan is one FROM entry with its pushed predicates and access path.
type sourcePlan struct {
	ref     sqlparse.TableRef
	tbl     *storage.Table
	offset  int // first global value slot of this source
	numCols int
	access  accessPath
	preds   []compiledPred // single-table conjuncts, applied inside the scan
}

// joinStep combines the accumulated left prefix with one more source.
type joinStep struct {
	right    *sourcePlan
	leftKey  []joinKeyCol   // global slots into the left prefix row
	rightKey []joinKeyCol   // local slots into the right source row
	post     []compiledPred // multi-source conjuncts completed by this join
}

// physicalPlan is the planned FROM/WHERE pipeline of one SELECT.
type physicalPlan struct {
	sources []*sourcePlan
	steps   []joinStep // len(sources)-1 entries, in EXECUTION order
	// residual holds WHERE parts the pipeline could not place (aggregates,
	// unresolvable columns); they are evaluated naively on the final rows.
	residual []sqlparse.Expr
	// order is the execution order of the sources (indexes into sources);
	// nil or the identity means syntactic execution. steps are compiled
	// against this order, with prefix-side slots in the execution layout.
	order []int
	// reordered reports that order differs from the syntactic FROM order;
	// the pipeline then restores the syntactic column layout and row order
	// above the joins (restoreIter), so every downstream stage — residual
	// filters, decoration, projection, ordering — is oblivious.
	reordered bool
	// srcRows, stepRows and estRows are the cost model's cardinality
	// estimates: per source (syntactic index), after each execution step,
	// and out of the whole join pipeline. noStats marks sources planned
	// without table statistics. EXPLAIN renders all of them.
	srcRows  []float64
	stepRows []float64
	estRows  float64
	noStats  []bool
}

// execOrder returns the execution order of the sources, defaulting to the
// syntactic order.
func (p *physicalPlan) execOrder() []int {
	if p.order != nil {
		return p.order
	}
	order := make([]int, len(p.sources))
	for i := range order {
		order[i] = i
	}
	return order
}

// String renders the plan shape in execution order for tests and debugging,
// e.g. "IndexScan(gene.gid =) -> HashJoin(protein) -> Filter".
func (p *physicalPlan) String() string {
	var b strings.Builder
	for i, si := range p.execOrder() {
		src := p.sources[si]
		if i > 0 {
			step := p.steps[i-1]
			if len(step.leftKey) > 0 {
				fmt.Fprintf(&b, " -> HashJoin(%s", src.tbl.Name())
			} else {
				fmt.Fprintf(&b, " -> NestedLoop(%s", src.tbl.Name())
			}
			b.WriteString(describeScan(src))
			b.WriteString(")")
			if len(step.post) > 0 {
				b.WriteString(" -> Filter")
			}
			continue
		}
		b.WriteString(scanDesc(src))
		if len(src.preds) > 0 {
			b.WriteString(" -> Filter")
		}
	}
	if p.reordered {
		b.WriteString(" -> Restore")
	}
	if len(p.residual) > 0 {
		b.WriteString(" -> Residual")
	}
	return b.String()
}

// scanDesc renders a source's access path, e.g. "SeqScan(T)" or
// "IndexScan(T.Col =)".
func scanDesc(src *sourcePlan) string {
	switch src.access.kind {
	case accessIndexEq:
		return fmt.Sprintf("IndexScan(%s.%s =)", src.tbl.Name(), src.access.column)
	case accessIndexEqParam:
		return fmt.Sprintf("IndexScan(%s.%s = ?)", src.tbl.Name(), src.access.column)
	case accessIndexRange:
		return fmt.Sprintf("IndexScan(%s.%s range)", src.tbl.Name(), src.access.column)
	default:
		return fmt.Sprintf("SeqScan(%s)", src.tbl.Name())
	}
}

func describeScan(src *sourcePlan) string {
	switch src.access.kind {
	case accessIndexEq:
		return fmt.Sprintf(" via IndexScan(%s.%s =)", src.tbl.Name(), src.access.column)
	case accessIndexEqParam:
		return fmt.Sprintf(" via IndexScan(%s.%s = ?)", src.tbl.Name(), src.access.column)
	case accessIndexRange:
		return fmt.Sprintf(" via IndexScan(%s.%s range)", src.tbl.Name(), src.access.column)
	default:
		return ""
	}
}

// --- conjunct analysis ---------------------------------------------------------------------

// splitAnd flattens top-level ANDs into conjuncts.
func splitAnd(e sqlparse.Expr, out []sqlparse.Expr) []sqlparse.Expr {
	if bin, ok := e.(*sqlparse.BinaryExpr); ok && bin.Op == "AND" {
		return splitAnd(bin.Right, splitAnd(bin.Left, out))
	}
	return append(out, e)
}

// walkColumns visits every ColumnExpr in e. It returns false if e contains an
// aggregate (which cannot be pushed below grouping).
func walkColumns(e sqlparse.Expr, fn func(*sqlparse.ColumnExpr)) bool {
	switch ex := e.(type) {
	case nil:
		return true
	case *sqlparse.ColumnExpr:
		fn(ex)
		return true
	case *sqlparse.LiteralExpr:
		return true
	case *sqlparse.UnaryExpr:
		return walkColumns(ex.Expr, fn)
	case *sqlparse.IsNullExpr:
		return walkColumns(ex.Expr, fn)
	case *sqlparse.BinaryExpr:
		return walkColumns(ex.Left, fn) && walkColumns(ex.Right, fn)
	case *sqlparse.PlaceholderExpr:
		// A placeholder references no columns; the value is bound at
		// execution time, so the conjunct stays pushable.
		return true
	case *sqlparse.AggregateExpr:
		return false
	default:
		return false
	}
}

// analyzedConjunct is one WHERE conjunct with resolved column slots.
type analyzedConjunct struct {
	expr    sqlparse.Expr
	slots   map[*sqlparse.ColumnExpr]int
	sources map[int]bool // source indexes referenced
	maxSrc  int
}

// analyzeConjunct resolves the conjunct's columns against the full binding
// list. ok is false when the conjunct cannot be planned (aggregate or
// resolution failure) and must run as a naive residual.
func analyzeConjunct(e sqlparse.Expr, bindings []binding, slotSource []int) (analyzedConjunct, bool) {
	ac := analyzedConjunct{
		expr:    e,
		slots:   make(map[*sqlparse.ColumnExpr]int),
		sources: make(map[int]bool),
	}
	resolved := true
	pure := walkColumns(e, func(col *sqlparse.ColumnExpr) {
		idx, _, err := resolveColumn(bindings, col)
		if err != nil {
			resolved = false
			return
		}
		ac.slots[col] = idx
		src := slotSource[idx]
		ac.sources[src] = true
		if src > ac.maxSrc {
			ac.maxSrc = src
		}
	})
	return ac, pure && resolved
}

// constOperand reports whether e references no columns or aggregates (it may
// contain placeholders); used to recognize `col = <const>` index probes with
// computed constants and `col = ?` deferred probes.
func constOperand(e sqlparse.Expr) bool {
	hasCol := false
	pure := walkColumns(e, func(*sqlparse.ColumnExpr) { hasCol = true })
	return pure && !hasCol
}

// containsPlaceholder reports whether any `?` marker appears in e.
func containsPlaceholder(e sqlparse.Expr) bool {
	found := false
	sqlparse.WalkExpr(e, func(sub sqlparse.Expr) {
		if _, ok := sub.(*sqlparse.PlaceholderExpr); ok {
			found = true
		}
	})
	return found
}

// comparisonParts matches `col op const` / `const op col` and returns the
// column, the constant expression (columns- and aggregate-free, possibly
// containing placeholders) and the op normalized to put the column on the
// left.
func comparisonParts(e sqlparse.Expr) (*sqlparse.ColumnExpr, sqlparse.Expr, string, bool) {
	bin, ok := e.(*sqlparse.BinaryExpr)
	if !ok {
		return nil, nil, "", false
	}
	switch bin.Op {
	case "=", "<", "<=", ">", ">=":
	default:
		return nil, nil, "", false
	}
	if col, ok := bin.Left.(*sqlparse.ColumnExpr); ok && constOperand(bin.Right) {
		return col, bin.Right, bin.Op, true
	}
	if col, ok := bin.Right.(*sqlparse.ColumnExpr); ok && constOperand(bin.Left) {
		return col, bin.Left, flipOp(bin.Op), true
	}
	return nil, nil, "", false
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op
	}
}

// indexProbeValue converts a constant comparison operand to the indexed
// column's type so its EncodeKey form matches the stored keys. exact reports
// whether the conversion preserves the comparison (when false, the caller
// must widen range bounds to inclusive; equality stays correct because the
// original predicate is re-applied above the probe). usable is false when no
// index probe can be derived at all.
func indexProbeValue(colType value.Type, v value.Value) (probe value.Value, exact, usable bool) {
	if v.IsNull() {
		return value.Value{}, false, false
	}
	if v.Type() == colType {
		return v, true, true
	}
	switch classOf(colType) {
	case classNumeric:
		if classOf(v.Type()) != classNumeric {
			return value.Value{}, false, false
		}
		if colType == value.Float {
			// Compare evaluates both sides as float64, so the cast IS the
			// comparison semantics.
			return value.NewFloat(v.Float()), true, true
		}
		// INT column, FLOAT constant: probe the nearest integers on either
		// side; bounds become inclusive supersets unless f is integral.
		f := v.Float()
		if f > math.MaxInt64/2 || f < math.MinInt64/2 {
			return value.Value{}, false, false
		}
		return value.NewInt(int64(math.Floor(f))), f == math.Trunc(f), true
	case classString:
		if classOf(v.Type()) != classString {
			return value.Value{}, false, false
		}
		if colType == value.Sequence {
			return value.NewSequence(v.Text()), true, true
		}
		return value.NewText(v.Text()), true, true
	default:
		// Bool/Timestamp probes require the exact type, handled above.
		return value.Value{}, false, false
	}
}

// --- planning ------------------------------------------------------------------------------

// planSelect builds the physical FROM/WHERE plan. bindings and slotSource
// describe the global value-slot layout (slotSource[i] = source index of
// slot i).
func (s *Session) planSelect(st *sqlparse.SelectStmt, sources []*sourcePlan, bindings []binding, slotSource []int) *physicalPlan {
	plan := &physicalPlan{sources: sources}
	if len(sources) == 0 {
		// FROM is mandatory in the grammar; a programmatically built
		// statement with no sources yields no rows, so WHERE is moot.
		return plan
	}

	var conjuncts []analyzedConjunct
	if st.Where != nil {
		for _, e := range splitAnd(st.Where, nil) {
			ac, ok := analyzeConjunct(e, bindings, slotSource)
			if !ok {
				plan.residual = append(plan.residual, e)
				continue
			}
			conjuncts = append(conjuncts, ac)
		}
	}

	// Push single-table conjuncts into their scans.
	var multi []analyzedConjunct
	for _, ac := range conjuncts {
		if len(ac.sources) <= 1 {
			src := sources[ac.maxSrc]
			src.preds = append(src.preds, compiledPred{expr: ac.expr, slots: ac.slots})
			continue
		}
		multi = append(multi, ac)
	}

	// Choose index access paths from the pushed predicates.
	for _, src := range sources {
		s.chooseAccessPath(src)
	}

	// Estimate per-source cardinalities from the table statistics and choose
	// the join order by cost (cost.go); the syntactic order is kept unless a
	// candidate is strictly cheaper, and Session.NoReorder pins it
	// unconditionally. The chosen order's steps are compiled with their
	// prefix-side slots in the execution row layout.
	m := s.newCostModel(sources, slotSource)
	plan.srcRows = m.est
	plan.noStats = make([]bool, len(sources))
	for i := range sources {
		plan.noStats[i] = m.tstats[i] == nil
	}
	order := m.identity()
	if !s.NoReorder && len(sources) > 1 {
		order = m.chooseOrder(multi)
	}
	plan.order = order
	for i, si := range order {
		if si != i {
			plan.reordered = true
			plansReordered.Add(1)
			break
		}
	}
	plan.steps, plan.stepRows, plan.estRows = m.buildSteps(order, multi, !s.NoReorder)
	return plan
}

// chooseAccessPath picks an index probe for the source from its pushed
// predicates: the first constant equality on an indexed column wins, then an
// equality against a placeholder (resolved at execution time), otherwise
// every constant range conjunct on the first indexed range column is merged
// into one [lo, hi] probe. The chosen conjuncts stay in src.preds, so the
// probe may safely return a superset (and a deferred probe may safely fall
// back to a full scan when the bound argument cannot be converted to the
// column's key space).
func (s *Session) chooseAccessPath(src *sourcePlan) {
	var rangeCol string
	var deferredEq sqlparse.Expr
	var deferredCol string
	lo, hi := value.NewNull(), value.NewNull()
	loStrict, hiStrict := false, false

	for _, p := range src.preds {
		col, ce, op, ok := comparisonParts(p.expr)
		if !ok {
			continue
		}
		name := col.Column
		if !src.tbl.HasIndex(name) {
			continue
		}
		if containsPlaceholder(ce) {
			// The probe value is unknown until the statement is bound; only
			// equality probes are deferred (range bounds cannot be merged
			// without their values).
			if op == "=" && deferredEq == nil {
				deferredEq, deferredCol = ce, name
			}
			continue
		}
		cv, err := s.evalConst(ce, nil)
		if err != nil {
			continue
		}
		colType := src.tbl.Schema().Columns[src.tbl.Schema().ColumnIndex(name)].Type
		probe, exact, usable := indexProbeValue(colType, cv)
		if !usable {
			continue
		}
		if op == "=" {
			// Even an inexact probe (e.g. INT column against a fractional
			// constant) is safe: it yields a superset that the re-applied
			// predicate filters out.
			src.access = accessPath{kind: accessIndexEq, column: name, eq: probe}
			return
		}
		if rangeCol == "" {
			rangeCol = name
		}
		if name != rangeCol {
			continue // merge ranges on one column only
		}
		switch op {
		case ">", ">=":
			strict := op == ">" && exact
			if lo.IsNull() || tighterLow(probe, strict, lo, loStrict) {
				lo, loStrict = probe, strict
			}
		case "<", "<=":
			strict := op == "<" && exact
			if !exact {
				// Inexact upper bound: widen one key upward so no match is
				// lost (e.g. INT col < 1.2 must include col = 1).
				probe = value.NewInt(probe.Int() + 1)
			}
			if hi.IsNull() || tighterHigh(probe, strict, hi, hiStrict) {
				hi, hiStrict = probe, strict
			}
		}
	}
	if deferredEq != nil {
		src.access = accessPath{kind: accessIndexEqParam, column: deferredCol, eqExpr: deferredEq}
		return
	}
	if rangeCol != "" && (!lo.IsNull() || !hi.IsNull()) {
		src.access = accessPath{kind: accessIndexRange, column: rangeCol, lo: lo, hi: hi, loStrict: loStrict, hiStrict: hiStrict}
	}
}

// tighterLow reports whether bound (a, aStrict) is a tighter lower bound than
// (b, bStrict).
func tighterLow(a value.Value, aStrict bool, b value.Value, bStrict bool) bool {
	c, err := a.Compare(b)
	if err != nil {
		return false
	}
	return c > 0 || (c == 0 && aStrict && !bStrict)
}

func tighterHigh(a value.Value, aStrict bool, b value.Value, bStrict bool) bool {
	c, err := a.Compare(b)
	if err != nil {
		return false
	}
	return c < 0 || (c == 0 && aStrict && !bStrict)
}

func columnTypeAt(sources []*sourcePlan, slotSource []int, slot int) value.Type {
	src := sources[slotSource[slot]]
	return src.tbl.Schema().Columns[slot-src.offset].Type
}

// resolveSources builds the source plans and the global value-slot layout
// (bindings plus slot -> source mapping) for a FROM list. Both the executor
// (buildSelect) and explainSelect derive the layout from here so plan
// explanation can never diverge from plan execution.
func (s *Session) resolveSources(from []sqlparse.TableRef) ([]*sourcePlan, []binding, []int, error) {
	var sources []*sourcePlan
	var bindings []binding
	var slotSource []int
	offset := 0
	for si, ref := range from {
		tbl, err := s.Eng.Table(ref.Table)
		if err != nil {
			return nil, nil, nil, err
		}
		cols := tbl.Schema().Columns
		sources = append(sources, &sourcePlan{ref: ref, tbl: tbl, offset: offset, numCols: len(cols)})
		for i, col := range cols {
			bindings = append(bindings, binding{table: tbl.Name(), alias: ref.Alias, column: col.Name, colIdx: i})
			slotSource = append(slotSource, si)
		}
		offset += len(cols)
	}
	return sources, bindings, slotSource, nil
}

// --- execution -----------------------------------------------------------------------------

// scanRowIDs produces the source's candidate RowIDs per its access path.
// Deferred probes (accessIndexEqParam) evaluate their comparison value from
// the bound parameters; when the argument cannot be converted to the indexed
// column's key space the scan falls back to the full RowID list, which is
// always correct because the originating predicate is re-applied in the scan.
//
// Under a snapshot the index trees still reflect the CURRENT rows, so every
// probe result is widened with the rows the snapshot sees differently
// (updated or deleted since it was taken) — the probe only needs to produce
// a superset, the scan re-applies every pushed predicate per row.
func (s *Session) scanRowIDs(src *sourcePlan, params value.Row, snap *storage.Snapshot) ([]int64, error) {
	switch src.access.kind {
	case accessIndexEq:
		ids, err := src.tbl.IndexLookup(src.access.column, src.access.eq)
		if err != nil || snap == nil {
			return ids, err
		}
		return snap.AugmentRowIDs(src.tbl, ids), nil
	case accessIndexEqParam:
		v, err := s.evalConst(src.access.eqExpr, params)
		if err != nil {
			return nil, err
		}
		colType := src.tbl.Schema().Columns[src.tbl.Schema().ColumnIndex(src.access.column)].Type
		probe, _, usable := indexProbeValue(colType, v)
		if !usable {
			if snap != nil {
				return snap.RowIDs(src.tbl), nil
			}
			return src.tbl.RowIDs(), nil
		}
		ids, err := src.tbl.IndexLookup(src.access.column, probe)
		if err != nil || snap == nil {
			return ids, err
		}
		return snap.AugmentRowIDs(src.tbl, ids), nil
	case accessIndexRange:
		ids, err := src.tbl.IndexRange(src.access.column, src.access.lo, src.access.loStrict, src.access.hi, src.access.hiStrict)
		if err != nil || snap == nil {
			return ids, err
		}
		return snap.AugmentRowIDs(src.tbl, ids), nil
	default:
		if snap != nil {
			return snap.RowIDs(src.tbl), nil
		}
		return src.tbl.RowIDs(), nil
	}
}

// buildPipeline assembles the iterator tree of the planned FROM/WHERE
// pipeline (scans, joins, post-join filters and residual conjuncts). Both
// the materializing runPlan and the streaming cursor pull from it. Sources
// are scanned and joined in the plan's execution order; a reordered plan
// restores the syntactic layout and row order before the residual filter.
// orderedIDs, when non-nil, is a pre-captured index-ordered RowID list for
// the (single) source — the sort-elision path of buildSelectIter — and
// bypasses the vectorized batch scan, which only reads in RowID order.
func (s *Session) buildPipeline(ctx context.Context, plan *physicalPlan, bindings []binding, params value.Row, snap *storage.Snapshot, orderedIDs []int64) (rowIter, error) {
	first := plan.sources[plan.execOrder()[0]]
	var bs *batchScanIter
	if orderedIDs == nil && len(plan.steps) == 0 {
		// Single-source full scan under a snapshot: run vectorized. Joins
		// are ruled out first, so they never build or refresh a mirror they
		// would not read. The adapter emits the same rows (values, origins,
		// order) the row scan would, so everything downstream is oblivious.
		bs = s.tryBatchScan(ctx, first, params, snap)
	}
	var it rowIter
	switch {
	case orderedIDs != nil:
		it = &scanIter{ctx: ctx, src: first, ids: orderedIDs, params: params, snap: snap}
	case bs != nil:
		it = &batchRowsIter{src: bs}
	default:
		ids, err := s.scanRowIDs(first, params, snap)
		if err != nil {
			return nil, err
		}
		it = &scanIter{ctx: ctx, src: first, ids: ids, params: params, snap: snap}
	}
	for i := range plan.steps {
		step := &plan.steps[i]
		rids, err := s.scanRowIDs(step.right, params, snap)
		if err != nil {
			return nil, err
		}
		rightRows, err := drainIter(&scanIter{ctx: ctx, src: step.right, ids: rids, params: params, snap: snap})
		if err != nil {
			return nil, err
		}
		if len(step.leftKey) > 0 {
			it = newHashJoinIter(ctx, it, rightRows, step.leftKey, step.rightKey)
		} else {
			it = &crossJoinIter{ctx: ctx, left: it, right: rightRows}
		}
		if len(step.post) > 0 {
			it = &filterIter{in: it, preds: step.post, params: params}
		}
	}
	if plan.reordered {
		it = &restoreIter{in: it, plan: plan}
	}
	if len(plan.residual) > 0 {
		// Residual conjuncts (aggregates over single rows, late resolution
		// errors) are evaluated exactly like the naive executor evaluates
		// WHERE.
		it = &residualIter{s: s, in: it, exprs: plan.residual, bindings: bindings, params: params}
	}
	return it, nil
}

// runPlan executes the pipeline and returns the surviving rows (values and
// origins only; annotations are attached later by decorateRows).
func (s *Session) runPlan(ctx context.Context, plan *physicalPlan, bindings []binding, params value.Row) ([]execRow, error) {
	if len(plan.sources) == 0 {
		return nil, nil
	}
	it, err := s.buildPipeline(ctx, plan, bindings, params, nil, nil)
	if err != nil {
		return nil, err
	}
	return drainIter(it)
}

// annSource is the per-source decoration plan: which annotation tables the
// ANNOTATION clause requested and the outdated bitmap, both resolved once
// per query instead of once per row.
type annSource struct {
	name     string
	offset   int
	numCols  int
	want     bool
	filter   annotation.Filter
	bm       *dependency.Bitmap
	colNames []string
}

// decorator attaches annotations and outdated marks to pipeline rows.
// Resolving the per-source state once at construction lets the streaming
// cursor decorate one row per Next call at the same cost per row as the
// batch path.
type decorator struct {
	s         *Session
	plans     []annSource
	totalCols int
	anyWork   bool
}

// newDecorator resolves the decoration plan of each source.
func (s *Session) newDecorator(sources []*sourcePlan) *decorator {
	d := &decorator{s: s, plans: make([]annSource, len(sources))}
	for i, src := range sources {
		d.totalCols += src.numCols
		as := annSource{
			name:    src.tbl.Name(),
			offset:  src.offset,
			numCols: src.numCols,
		}
		if len(src.ref.Annotations) > 0 {
			as.want = true
			if src.ref.Annotations[0] != "*" {
				as.filter.AnnTables = src.ref.Annotations
			}
		}
		if s.Dep != nil {
			if bm := s.Dep.Bitmap(src.tbl.Name()); bm.Any() {
				as.bm = bm
				as.colNames = src.tbl.Schema().ColumnNames()
			}
		}
		if as.want || as.bm != nil {
			d.anyWork = true
		}
		d.plans[i] = as
	}
	return d
}

// decorate attaches the requested annotations and outdated marks to one row.
func (d *decorator) decorate(r *execRow) {
	r.anns = make([][]*annotation.Annotation, d.totalCols)
	if !d.anyWork {
		return
	}
	for j := range d.plans {
		as := &d.plans[j]
		if !as.want && as.bm == nil {
			continue
		}
		rowID := r.origins[j].rowID
		if as.want {
			for c := 0; c < as.numCols; c++ {
				r.anns[as.offset+c] = d.s.Ann.ForCell(as.name, rowID, c, as.filter)
			}
		}
		if as.bm != nil && as.bm.RowOutdated(rowID) {
			for c := 0; c < as.numCols; c++ {
				if as.bm.IsSet(rowID, c) {
					r.anns[as.offset+c] = append(r.anns[as.offset+c], &annotation.Annotation{
						AnnTable:  OutdatedAnnTable,
						UserTable: as.name,
						Author:    "system:dependency-tracker",
						Body: fmt.Sprintf("<Annotation>OUTDATED: %s.%s of row %d needs re-verification</Annotation>",
							as.name, as.colNames[c], rowID),
						Regions: []annotation.Region{annotation.CellRegion(as.name, rowID, c)},
					})
				}
			}
		}
	}
}

// decorateRows attaches, per surviving row, the annotations requested by each
// source's ANNOTATION clause and the dependency manager's outdated marks.
// Doing this after the filter/join pipeline — instead of at scan time like
// the naive executor — means annotation lookups run once per result row, not
// once per scanned row. The per-table bitmap is fetched once (not per cell)
// and skipped entirely when it has no set bits.
func (s *Session) decorateRows(rows []execRow, sources []*sourcePlan) {
	if len(rows) == 0 {
		return
	}
	d := s.newDecorator(sources)
	for i := range rows {
		d.decorate(&rows[i])
	}
}
