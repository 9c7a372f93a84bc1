package engine

import (
	"context"
	"fmt"

	"legodb/internal/faults"
	"legodb/internal/sqlast"
)

// Params binds the unbound parameters (c1, c2, ...) of a query to values
// at execution time.
type Params map[string]Value

// ResultSet is the output of executing a query: the union of its blocks'
// rows. Columns follow the widest block; rows from narrower blocks are
// padded with NULL so every row has len(Columns) cells.
type ResultSet struct {
	Columns []string
	Rows    []Row
}

// Execute runs all blocks of a query and unions their results, counting
// work in db.Stats. It is ExecuteContext with a background context.
func (db *Database) Execute(q *sqlast.Query, params Params) (*ResultSet, error) {
	return db.ExecuteContext(context.Background(), q, params)
}

// ExecuteContext is Execute under a caller-controlled context:
// cancelling ctx (or exceeding its deadline) aborts the execution at the
// next chunk or probe-loop boundary with the context's error, so a
// served query stops consuming engine work as soon as its request is
// cancelled. Counters accrue into an execution-local accumulator and are
// folded into db.Stats once at the end (partial work included on error),
// so concurrent executions never race on the shared counters.
func (db *Database) ExecuteContext(ctx context.Context, q *sqlast.Query, params Params) (*ResultSet, error) {
	var stats Counters
	out := &ResultSet{}
	for _, b := range q.Blocks {
		rs, err := db.executeBlock(ctx, b, params, &stats)
		if err != nil {
			db.addStats(stats)
			return nil, fmt.Errorf("engine: %s: %w", q.Name, err)
		}
		if len(rs.Columns) > len(out.Columns) {
			out.Columns = rs.Columns
		}
		out.Rows = append(out.Rows, rs.Rows...)
	}
	// Union blocks can differ in width (a publishing query's outer-union
	// skeleton); pad narrower blocks' rows with NULL so every row matches
	// the widest block's column list.
	for i, r := range out.Rows {
		for len(r) < len(out.Columns) {
			r = append(r, Null)
		}
		out.Rows[i] = r
	}
	stats.TuplesOut += int64(len(out.Rows))
	db.addStats(stats)
	return out, nil
}

// ExecuteBlock runs one SPJ block with a background context.
func (db *Database) ExecuteBlock(b *sqlast.Block, params Params) (*ResultSet, error) {
	return db.ExecuteBlockContext(context.Background(), b, params)
}

// ExecuteBlockContext runs one SPJ block: filtered scan of a start
// relation, then index-nested-loop or hash joins along the join graph,
// then projection. The physical plan (join order, join algorithm per
// edge, cross-filter schedule) is derived once by planBlock and shared by
// both executor implementations, so the batch and row-at-a-time paths do
// the same logical work and report identical Counters.
func (db *Database) ExecuteBlockContext(ctx context.Context, b *sqlast.Block, params Params) (*ResultSet, error) {
	var stats Counters
	rs, err := db.executeBlock(ctx, b, params, &stats)
	db.addStats(stats)
	return rs, err
}

func (db *Database) executeBlock(ctx context.Context, b *sqlast.Block, params Params, stats *Counters) (*ResultSet, error) {
	// SiteExec is the serving path's fault seam: tests arm it to prove an
	// injected executor failure surfaces as a structured error without
	// wedging or crashing the caller.
	if err := faults.Inject(faults.SiteExec); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := db.planBlock(b)
	if err != nil {
		return nil, err
	}
	if db.Exec.RowAtATime {
		return db.executeBlockRows(ctx, p, params, stats)
	}
	return db.executeBlockBatch(ctx, p, params, stats)
}

// ctxCheckMask bounds how often the executors' inner loops poll for
// cancellation: every (mask+1)th tuple, cheap enough to leave on
// unconditionally while still stopping runaway scans, probes and
// cartesian products within a fraction of a millisecond.
const ctxCheckMask = 511

// stepKind discriminates how a plan step binds its alias.
type stepKind int

const (
	// stepINL probes the new relation's key index once per intermediate
	// tuple (index nested-loop join).
	stepINL stepKind = iota
	// stepHash scans the new relation and joins it to the intermediate
	// tuples through a hash table — unless the join column carries a
	// secondary index and the intermediate is the smaller side, when it
	// runs as index probes like stepINL (see planStep.probesIndex).
	stepHash
	// stepCartesian crosses the intermediate tuples with a filtered scan
	// of a disconnected relation.
	stepCartesian
)

// planStep binds one more alias into the intermediate result.
type planStep struct {
	kind  stepKind
	alias string
	// filters are the constant (and same-alias) filters on alias, applied
	// while scanning or probing it.
	filters []sqlast.Filter
	// Join edge (stepINL / stepHash): alias.newCol = oldAlias.oldCol with
	// oldAlias already bound.
	newCol   string
	oldAlias string
	oldCol   string
	// index is the new relation's index on newCol when the physical
	// design makes that column an access path: the key index of a
	// stepINL, a secondary index a stepHash may probe instead of scanning.
	index *hashIndex
	// cross lists the cross filters that first become applicable (both
	// aliases bound) after this step. Equality cross filters that the
	// planner consumed as join edges are enforced by the join itself and
	// are not listed; the rest — including equality filters whose aliases
	// both became bound through other edges — are applied here exactly
	// once.
	cross []sqlast.Filter
}

// blockPlan is the shared physical plan of one SPJ block.
type blockPlan struct {
	tables map[string]*Table
	// order lists aliases in FROM order; slot maps an alias to its
	// position (the batch executor's column index for that alias).
	order []string
	slot  map[string]int
	start string
	// startFilters are the constant filters on the start alias.
	startFilters []sqlast.Filter
	// startIndex is the access path into the start relation: the index
	// answering startFilters[startLookup], the first equality-with-
	// constant filter on a column that is one. nil means scan.
	startIndex  *hashIndex
	startLookup int
	steps       []planStep
	projs       []sqlast.ColumnRef
}

// planBlock derives the physical plan: the start relation (prefer one
// with constant filters) and its access path (an index lookup when an
// equality-with-constant filter sits on a column with a secondary index,
// a scan otherwise), the deterministic join order (declared joins first,
// then equality cross filters, first applicable edge wins — the same
// order the seed executor produced), the join algorithm per edge (INL
// through a key index, hash otherwise, the hash step probing a secondary
// index on the join column when the intermediate is the smaller side),
// cartesian fallbacks for disconnected aliases, and the cross-filter
// schedule. Join order never depends on the data, only on the block and
// the catalog, so it can be fixed before execution; a catalog without
// secondary indexes plans exactly as the paper's key-only model does.
func (db *Database) planBlock(b *sqlast.Block) (*blockPlan, error) {
	if len(b.Tables) == 0 {
		return nil, fmt.Errorf("block has no tables")
	}
	p := &blockPlan{
		tables: make(map[string]*Table, len(b.Tables)),
		slot:   make(map[string]int, len(b.Tables)),
	}
	for _, tref := range b.Tables {
		t := db.Table(tref.Table)
		if t == nil {
			return nil, fmt.Errorf("unknown table %q", tref.Table)
		}
		if _, dup := p.tables[tref.Alias]; !dup {
			p.slot[tref.Alias] = len(p.order)
			p.order = append(p.order, tref.Alias)
		}
		p.tables[tref.Alias] = t
	}

	constFilters := make(map[string][]sqlast.Filter)
	var cross []sqlast.Filter
	for _, f := range b.Filters {
		if f.RightCol != nil && f.RightCol.Alias != f.Col.Alias {
			cross = append(cross, f)
			continue
		}
		constFilters[f.Col.Alias] = append(constFilters[f.Col.Alias], f)
	}

	p.start = p.order[0]
	for _, a := range p.order {
		if len(constFilters[a]) > 0 {
			p.start = a
			break
		}
	}
	p.startFilters = constFilters[p.start]
	for i, f := range p.startFilters {
		if f.Op != sqlast.OpEq || f.RightCol != nil {
			continue
		}
		if ix := p.tables[p.start].accessIndex(f.Col.Column); ix != nil {
			p.startIndex, p.startLookup = ix, i
			break
		}
	}

	bound := map[string]bool{p.start: true}
	eqUsed := make([]bool, len(cross))
	crossDone := make([]bool, len(cross))
	// schedule returns the cross filters that just became applicable:
	// both aliases bound, not yet scheduled, and not consumed as a join
	// edge. Each filter is applied exactly once, at the earliest step
	// where it can be evaluated.
	schedule := func() []sqlast.Filter {
		var out []sqlast.Filter
		for i, f := range cross {
			if crossDone[i] || eqUsed[i] {
				continue
			}
			if bound[f.Col.Alias] && bound[f.RightCol.Alias] {
				crossDone[i] = true
				out = append(out, f)
			}
		}
		return out
	}

	for len(bound) < len(p.order) {
		st, crossIdx, found := nextEdge(b, cross, bound)
		if !found {
			// Disconnected: cartesian with the next unbound alias.
			for _, a := range p.order {
				if !bound[a] {
					st = planStep{kind: stepCartesian, alias: a}
					break
				}
			}
		} else if crossIdx >= 0 {
			// This equality cross filter is enforced by the join edge; it
			// must not be re-applied as a filter.
			eqUsed[crossIdx] = true
		}
		st.filters = constFilters[st.alias]
		if st.kind != stepCartesian {
			// Index nested-loop only through the new relation's key,
			// mirroring the optimizer's physical assumptions; any other
			// access path the design offers (a foreign key's index
			// included) is probed by the hash step when that is cheaper.
			newTable := p.tables[st.alias]
			st.index = newTable.accessIndex(st.newCol)
			if c := newTable.Def.Column(st.newCol); st.index != nil && c.Key {
				st.kind = stepINL
			} else {
				st.kind = stepHash
			}
		}
		bound[st.alias] = true
		st.cross = schedule()
		p.steps = append(p.steps, st)
	}

	p.projs = b.Projects
	if len(p.projs) == 0 {
		p.projs = []sqlast.ColumnRef{{Alias: p.order[0], Column: p.tables[p.order[0]].Def.Key()}}
	}
	return p, nil
}

// nextEdge picks the next join edge: declared joins in order, then
// equality cross filters in order, the first with exactly one side
// bound. crossIdx reports which cross filter supplied the edge (-1 for
// declared joins).
func nextEdge(b *sqlast.Block, cross []sqlast.Filter, bound map[string]bool) (st planStep, crossIdx int, found bool) {
	for _, j := range b.Joins {
		switch {
		case bound[j.Left.Alias] && !bound[j.Right.Alias]:
			return planStep{alias: j.Right.Alias, newCol: j.Right.Column,
				oldAlias: j.Left.Alias, oldCol: j.Left.Column}, -1, true
		case bound[j.Right.Alias] && !bound[j.Left.Alias]:
			return planStep{alias: j.Left.Alias, newCol: j.Left.Column,
				oldAlias: j.Right.Alias, oldCol: j.Right.Column}, -1, true
		}
	}
	for i, f := range cross {
		if f.Op != sqlast.OpEq {
			continue
		}
		switch {
		case bound[f.Col.Alias] && !bound[f.RightCol.Alias]:
			return planStep{alias: f.RightCol.Alias, newCol: f.RightCol.Column,
				oldAlias: f.Col.Alias, oldCol: f.Col.Column}, i, true
		case bound[f.RightCol.Alias] && !bound[f.Col.Alias]:
			return planStep{alias: f.Col.Alias, newCol: f.Col.Column,
				oldAlias: f.RightCol.Alias, oldCol: f.RightCol.Column}, i, true
		}
	}
	return planStep{}, -1, false
}

// probesIndex reports whether a join step runs as index probes, one per
// intermediate tuple: always through a key; through a secondary index
// only while the intermediate (n tuples) is smaller than the relation a
// hash step would scan, and only when every filter on the relation
// resolves — a scan surfaces a filter's deferred error as soon as a live
// row reaches it, which a probe that matches nothing would not.
func (st *planStep) probesIndex(n int, t *Table, params Params) bool {
	switch {
	case st.kind == stepINL:
		return true
	case st.kind != stepHash || st.index == nil || n >= t.NumRows():
		return false
	}
	return !filtersFail(compileFilters(t, st.filters, params))
}

// indexStart answers the start relation's equality filter from its
// secondary index: the live positions whose cell equals the literal,
// ascending as a scan would meet them, with Counters accrued like an
// index join's (one probe, every matched tuple read). The caller still
// applies all of cf to them. ok is false when the block starts with a
// scan — no index, or a filter that does not resolve (see probesIndex).
func (p *blockPlan) indexStart(params Params, stats *Counters) (positions []int, cf []compiledFilter, ok bool) {
	if p.startIndex == nil {
		return nil, nil, false
	}
	t := p.tables[p.start]
	cf = compileFilters(t, p.startFilters, params)
	if filtersFail(cf) {
		return nil, nil, false
	}
	positions = t.lookupEq(p.startIndex, cf[p.startLookup].lit)
	stats.Probes++
	for _, pos := range positions {
		stats.TuplesRead++
		stats.BytesRead += t.probeRowBytes(pos)
	}
	return positions, cf, true
}

// resolveJoinCols resolves a join step's column indices, with the new
// side checked first (matching the reference executor's error order).
func (p *blockPlan) resolveJoinCols(st *planStep) (newCi, oldCi int, err error) {
	newTable := p.tables[st.alias]
	newCi = newTable.ColumnIndex(st.newCol)
	if newCi < 0 {
		return 0, 0, fmt.Errorf("no column %s.%s", st.alias, st.newCol)
	}
	oldTable := p.tables[st.oldAlias]
	oldCi = oldTable.ColumnIndex(st.oldCol)
	if oldCi < 0 {
		return 0, 0, fmt.Errorf("no column %s.%s", st.oldAlias, st.oldCol)
	}
	return newCi, oldCi, nil
}

func literalValue(l sqlast.Literal, params Params) (Value, error) {
	if l.IsParam {
		v, ok := params[l.Param]
		if !ok {
			return Null, fmt.Errorf("unbound parameter %q", l.Param)
		}
		return v, nil
	}
	if l.IsInt {
		return IntVal(l.Int), nil
	}
	return StrVal(l.Str), nil
}

// opHolds evaluates a comparison operator against a Compare result.
func opHolds(op sqlast.CmpOp, c int) bool {
	switch op {
	case sqlast.OpEq:
		return c == 0
	case sqlast.OpNe:
		return c != 0
	case sqlast.OpLt:
		return c < 0
	case sqlast.OpLe:
		return c <= 0
	case sqlast.OpGt:
		return c > 0
	case sqlast.OpGe:
		return c >= 0
	default:
		return false
	}
}

// satisfies evaluates a comparison; NULL never satisfies anything, and
// integer/string values compare only with their own kind (an integer
// literal against a CHAR column coerces by formatting, matching the
// shredder's storage rules).
func satisfies(left Value, op sqlast.CmpOp, right Value) bool {
	if left.IsNull() || right.IsNull() {
		return false
	}
	if left.Kind != right.Kind {
		// Coerce integers to strings for mixed comparisons.
		if left.Kind == IntValue {
			left = StrVal(left.String())
		}
		if right.Kind == IntValue {
			right = StrVal(right.String())
		}
	}
	return opHolds(op, Compare(left, right))
}

// compiledFilter is one constant (or same-alias column-column) filter
// with its column indices and literal resolved once per block instead of
// once per row. Resolution errors are deferred: like the per-row
// reference path, a missing column or unbound parameter only surfaces
// when at least one row is actually evaluated.
type compiledFilter struct {
	op       sqlast.CmpOp
	colIdx   int
	rightIdx int // -1: compare against lit
	lit      Value
	err      error
}

func compileFilters(t *Table, filters []sqlast.Filter, params Params) []compiledFilter {
	if len(filters) == 0 {
		return nil
	}
	out := make([]compiledFilter, len(filters))
	for i, f := range filters {
		cf := compiledFilter{op: f.Op, rightIdx: -1}
		cf.colIdx = t.ColumnIndex(f.Col.Column)
		if cf.colIdx < 0 {
			cf.err = fmt.Errorf("no column %s", f.Col.Column)
		} else if f.RightCol != nil {
			cf.rightIdx = t.ColumnIndex(f.RightCol.Column)
			if cf.rightIdx < 0 {
				cf.err = fmt.Errorf("no column %s", f.RightCol.Column)
			}
		} else {
			cf.lit, cf.err = literalValue(f.Value, params)
		}
		out[i] = cf
	}
	return out
}

// filtersFail reports whether any compiled filter carries a deferred
// resolution error.
func filtersFail(cf []compiledFilter) bool {
	for i := range cf {
		if cf[i].err != nil {
			return true
		}
	}
	return false
}

// passesCompiled evaluates compiled filters on one row (the scalar path
// used for probed rows, where gathering a vector per probe would cost
// more than it saves).
func passesCompiled(row Row, cf []compiledFilter) (bool, error) {
	for i := range cf {
		f := &cf[i]
		if f.err != nil {
			return false, f.err
		}
		right := f.lit
		if f.rightIdx >= 0 {
			right = row[f.rightIdx]
		}
		if !satisfies(row[f.colIdx], f.op, right) {
			return false, nil
		}
	}
	return true, nil
}

// passesCompiledAt is passesCompiled over a row addressed by global
// position: only the filtered cells are read, so probed base rows are
// never materialized.
func passesCompiledAt(t *Table, pos int, cf []compiledFilter) (bool, error) {
	for i := range cf {
		f := &cf[i]
		if f.err != nil {
			return false, f.err
		}
		right := f.lit
		if f.rightIdx >= 0 {
			right = t.Cell(pos, f.rightIdx)
		}
		if !satisfies(t.Cell(pos, f.colIdx), f.op, right) {
			return false, nil
		}
	}
	return true, nil
}
