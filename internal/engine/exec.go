package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"legodb/internal/faults"
	"legodb/internal/relational"
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

// RowSink receives an answer as the executor projects it, block by
// block in chunks of up to BatchSize rows, so a caller that encodes the
// answer never holds it as a ResultSet. Start comes first, once; then,
// for each block with rows, Block and that block's chunks. On an error
// the execution stops and what the sink received is not an answer.
type RowSink interface {
	// Start announces the answer's column list: the widest block's.
	Start(columns []string)
	// Block announces that the next n rows come from one block.
	Block(n int)
	// Rows takes the next chunk of rows. Each has its block's width,
	// which may be narrower than the column list: the sink pads it with
	// NULL. Rows and cells are the executor's reused buffer, valid only
	// until Rows returns.
	Rows(rows []Row)
}

// Collector is the RowSink that materializes an answer as a ResultSet:
// every row padded to the column list, each block's rows carved from one
// backing array.
type Collector struct {
	rs   ResultSet
	free []Value // the current block's cells not yet handed to a row
}

// Result returns the collected answer.
func (c *Collector) Result() *ResultSet { return &c.rs }

func (c *Collector) Start(columns []string) { c.rs.Columns = slices.Clone(columns) }

func (c *Collector) Block(n int) {
	c.free = make([]Value, n*len(c.rs.Columns))
	c.rs.Rows = slices.Grow(c.rs.Rows, n)
}

func (c *Collector) Rows(rows []Row) {
	w := len(c.rs.Columns)
	for _, r := range rows {
		row := c.free[:w:w]
		for j, v := range r {
			row[j] = v
		}
		c.free = c.free[w:]
		c.rs.Rows = append(c.rs.Rows, row)
	}
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
// cancelled. It plans the query and runs the plan: the one path a
// prepared execution takes too, minus the reuse.
func (db *Database) ExecuteContext(ctx context.Context, q *sqlast.Query, params Params) (*ResultSet, error) {
	p, err := db.Plan(q)
	if err != nil {
		return nil, err
	}
	return db.ExecutePlan(ctx, p, params)
}

// Plan is the physical plan of a whole query: one blockPlan per block,
// planned under one physical design of one database. It is immutable
// once built, so any number of executions — concurrent ones included —
// may share it, for as long as that design stands (see Current).
type Plan struct {
	db *Database
	// design is db.design when the plan was made.
	design uint64
	name   string
	blocks []*blockPlan
	// columns is the answer's column list: the widest block's.
	columns []string
}

// ErrStalePlan reports a plan run against a database, or a physical
// design, other than the one it was planned for.
var ErrStalePlan = errors.New("plan is stale: the physical design changed")

// Plan derives the physical plan of every block of q (see planBlock)
// against the database's current physical design.
func (db *Database) Plan(q *sqlast.Query) (*Plan, error) {
	p := &Plan{db: db, design: db.design, name: q.Name, blocks: make([]*blockPlan, len(q.Blocks))}
	for i, b := range q.Blocks {
		bp, err := db.planBlock(b)
		if err != nil {
			return nil, fmt.Errorf("engine: %s: %w", q.Name, err)
		}
		p.blocks[i] = bp
		if len(bp.columns) > len(p.columns) {
			p.columns = bp.columns
		}
	}
	return p, nil
}

// Current reports whether p was planned for db under the physical design
// db has now: no SetIndexes since.
func (p *Plan) Current(db *Database) bool { return p.db == db && p.design == db.design }

// ExplainBlock returns the plan the executor runs for block i (see
// blockPlan.String).
func (p *Plan) ExplainBlock(i int) string { return p.blocks[i].String() }

// ExecutePlan runs every block of a plan and unions their results: it
// is ExecutePlanTo with a Collector.
func (db *Database) ExecutePlan(ctx context.Context, p *Plan, params Params) (*ResultSet, error) {
	var c Collector
	if err := db.ExecutePlanTo(ctx, p, params, &c); err != nil {
		return nil, err
	}
	return c.Result(), nil
}

// ExecutePlanTo runs every block of a plan and hands the union of their
// rows to sink as each block projects them. Counters accrue into an
// execution-local accumulator and are folded into db.Stats once at the
// end (partial work included on error), so concurrent executions never
// race on the shared counters. A plan that is not Current for db is
// refused with ErrStalePlan: a plan runs only under the physical design
// it was planned for. The sink reads the tables' cells: the caller keeps
// them from changing (no Insert, Delete or SetIndexes) until it returns.
func (db *Database) ExecutePlanTo(ctx context.Context, p *Plan, params Params, sink RowSink) error {
	if !p.Current(db) {
		return fmt.Errorf("engine: %s: %w", p.name, ErrStalePlan)
	}
	var stats Counters
	out := emitter{sink: sink}
	defer out.release()
	sink.Start(p.columns)
	for _, bp := range p.blocks {
		if err := db.executeBlock(ctx, bp, params, &stats, &out); err != nil {
			db.addStats(stats)
			return fmt.Errorf("engine: %s: %w", p.name, err)
		}
	}
	stats.TuplesOut += out.n
	db.addStats(stats)
	return nil
}

// ExecuteBlock runs one SPJ block with a background context.
func (db *Database) ExecuteBlock(b *sqlast.Block, params Params) (*ResultSet, error) {
	return db.ExecuteBlockContext(context.Background(), b, params)
}

// ExecuteBlockContext runs one SPJ block: filtered scan of a start
// relation, then index-nested-loop or hash joins along the join graph,
// then projection. The physical plan (join order, join algorithm per
// edge, cross-filter schedule) is derived by planBlock.
func (db *Database) ExecuteBlockContext(ctx context.Context, b *sqlast.Block, params Params) (*ResultSet, error) {
	p, err := db.planBlock(b)
	if err != nil {
		return nil, err
	}
	var stats Counters
	var c Collector
	c.Start(p.columns)
	out := emitter{sink: &c}
	err = db.executeBlock(ctx, p, params, &stats, &out)
	out.release()
	db.addStats(stats)
	if err != nil {
		return nil, err
	}
	return c.Result(), nil
}

// executeBlock runs one planned block, projecting its rows into out.
func (db *Database) executeBlock(ctx context.Context, p *blockPlan, params Params, stats *Counters, out *emitter) error {
	// SiteExec is the serving path's fault seam: tests arm it to prove an
	// injected executor failure surfaces as a structured error without
	// wedging or crashing the caller.
	if err := faults.Inject(faults.SiteExec); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return db.executeBlockBatch(ctx, p, params, stats, out)
}

// emitter is one execution's way out: its sink, the chunk buffer every
// block projects into, and the rows handed over so far.
type emitter struct {
	sink RowSink
	buf  *chunkBuf
	n    int64
}

// chunkBuf is a projection buffer: a chunk's cells and the rows carved
// from them.
type chunkBuf struct {
	cells []Value
	rows  []Row
}

// chunkPool recycles projection buffers across executions. A buffer's
// stale cells keep their strings reachable until the buffer is reused or
// the pool is swept: at most a chunk's worth per buffer.
var chunkPool = sync.Pool{New: func() any { return new(chunkBuf) }}

// release returns the emitter's buffer, if it took one, to chunkPool.
func (out *emitter) release() {
	if out.buf != nil {
		chunkPool.Put(out.buf)
		out.buf = nil
	}
}

// project hands the projected cells of n tuples to the sink, in chunks
// of up to BatchSize rows gathered into the emitter's buffer. cols[slot]
// holds the row positions of the alias at that slot, tuple by tuple.
// Like a filter's, a projected column that does not resolve is an error
// only once a tuple reaches it.
func (out *emitter) project(ctx context.Context, p *blockPlan, cols [][]int32, n int) error {
	if n == 0 {
		return nil
	}
	for k, ci := range p.projCols {
		if ci < 0 {
			return fmt.Errorf("no column %s.%s", p.projs[k].Alias, p.projs[k].Column)
		}
	}
	if out.buf == nil {
		out.buf = chunkPool.Get().(*chunkBuf)
	}
	buf, w, m := out.buf, len(p.projs), min(n, BatchSize)
	if cap(buf.cells) < m*w {
		buf.cells = make([]Value, m*w)
	}
	if cap(buf.rows) < m {
		buf.rows = make([]Row, m)
	}
	rows := buf.rows[:m]
	for i := range rows {
		rows[i] = buf.cells[i*w : (i+1)*w : (i+1)*w]
	}
	out.sink.Block(n)
	for base := 0; base < n; base += BatchSize {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(base+BatchSize, n)
		for k, pr := range p.projs {
			t, ci := p.tables[pr.Alias], p.projCols[k]
			for i, pos := range cols[p.slot[pr.Alias]][base:end] {
				rows[i][k] = t.Cell(int(pos), ci)
			}
		}
		out.sink.Rows(rows[:end-base])
	}
	out.n += int64(n)
	return nil
}

// ctxCheckMask bounds how often the executor's inner loops poll for
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
	// cross lists the predicates between two aliases — cross filters and
	// declared joins alike — that first become applicable (both aliases
	// bound) after this step, except the join edge the step binds by. They
	// are applied here exactly once.
	cross []sqlast.Filter
	// fused lists the equalities among cross between columns of one kind
	// as column pairs, alias's column first: a hash step adds them to its
	// hash key and an index step checks them at each match, so pairs they
	// reject are never formed (cross still re-checks them).
	fused [][2]sqlast.ColumnRef
}

// blockPlan is the physical plan of one SPJ block. It is never written
// after planBlock returns: executions share it and keep their own state.
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
	// projCols are the projected columns' indices in their tables, -1
	// for one that does not resolve.
	projCols []int
	// columns names the projected columns, alias.column.
	columns []string
	// implied lists, in FROM order, the block's aliases the plan leaves
	// out because parent keys already guarantee their joins (see
	// impliedAliases).
	implied []string
}

// planBlock derives the physical plan: the start relation (prefer one
// with constant filters) and its access path (an index lookup when an
// equality-with-constant filter sits on a column with a secondary index,
// a scan otherwise), the join order (see nextAlias), the join algorithm
// per step (INL through a key index, hash otherwise, the hash step
// probing a secondary index on the join column when the intermediate is
// the smaller side), cartesian fallbacks for disconnected aliases, and
// the schedule of every other predicate between two aliases. Join order
// depends on the block alone — not on the data, the statistics or the
// index set — so it is fixed before execution and rows leave in the same
// order under every index set; a catalog without secondary indexes plans
// exactly as the paper's key-only model does.
func (db *Database) planBlock(b *sqlast.Block) (*blockPlan, error) {
	if len(b.Tables) == 0 {
		return nil, fmt.Errorf("block has no tables")
	}
	p := &blockPlan{
		tables:  make(map[string]*Table, len(b.Tables)),
		slot:    make(map[string]int, len(b.Tables)),
		implied: impliedAliases(b, db.Cat),
	}
	for _, tref := range b.Tables {
		t := db.Table(tref.Table)
		if t == nil {
			return nil, fmt.Errorf("unknown table %q", tref.Table)
		}
		if slices.Contains(p.implied, tref.Alias) {
			continue
		}
		if _, dup := p.tables[tref.Alias]; !dup {
			p.slot[tref.Alias] = len(p.order)
			p.order = append(p.order, tref.Alias)
		}
		p.tables[tref.Alias] = t
	}

	// preds holds every predicate between two aliases, declared joins
	// (read as equalities) before cross filters, with their aliases'
	// slots: built once, then only read by the greedy loop below. A
	// block's few predicates and aliases fit the stack buffers.
	constFilters := make(map[string][]sqlast.Filter)
	var predBuf [16]pred
	preds := predBuf[:0]
	for i := range b.Joins {
		j := &b.Joins[i]
		if slices.Contains(p.implied, j.Left.Alias) || slices.Contains(p.implied, j.Right.Alias) {
			continue
		}
		f := sqlast.Filter{Col: j.Left, Op: sqlast.OpEq, RightCol: &j.Right}
		if j.Left.Alias == j.Right.Alias {
			constFilters[f.Col.Alias] = append(constFilters[f.Col.Alias], f)
			continue
		}
		preds = append(preds, pred{f: f})
	}
	for _, f := range b.Filters {
		if f.RightCol != nil && f.RightCol.Alias != f.Col.Alias {
			preds = append(preds, pred{f: f})
			continue
		}
		constFilters[f.Col.Alias] = append(constFilters[f.Col.Alias], f)
	}
	for i := range preds {
		f := &preds[i].f
		l, lok := p.slot[f.Col.Alias]
		r, rok := p.slot[f.RightCol.Alias]
		if !lok || !rok {
			return nil, fmt.Errorf("predicate %s names an alias not in FROM", *f)
		}
		preds[i].ends = [2]int{l, r}
		preds[i].edge = f.Op == sqlast.OpEq && p.oneKind(f)
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

	// boundAt[s] is the step that bound slot s (the start is step 0), -1
	// while unbound.
	var boundBuf [16]int
	boundAt := boundBuf[:0]
	for range p.order {
		boundAt = append(boundAt, -1)
	}
	boundAt[p.slot[p.start]] = 0
	for n := 1; n < len(p.order); n++ {
		var st planStep
		s := nextAlias(preds, boundAt)
		if s < 0 {
			// Disconnected: cartesian with the next unbound alias.
			for s = range boundAt {
				if boundAt[s] < 0 {
					break
				}
			}
			st = planStep{kind: stepCartesian, alias: p.order[s]}
		} else {
			i := joinEdge(preds, boundAt, s)
			preds[i].taken = true
			e := sides(&preds[i].f, p.order[s])
			st = planStep{alias: e[0].Alias, newCol: e[0].Column, oldAlias: e[1].Alias, oldCol: e[1].Column}
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
		st.filters = constFilters[st.alias]
		boundAt[s] = n
		// Every other predicate is applied exactly once, at the earliest
		// step where both its aliases are bound.
		for i := range preds {
			pr := &preds[i]
			if pr.taken || boundAt[pr.ends[0]] < 0 || boundAt[pr.ends[1]] < 0 {
				continue
			}
			pr.taken = true
			st.cross = append(st.cross, pr.f)
			if pr.edge {
				st.fused = append(st.fused, sides(&pr.f, st.alias))
			}
		}
		p.steps = append(p.steps, st)
	}

	p.projs = b.Projects
	if len(p.projs) == 0 {
		p.projs = []sqlast.ColumnRef{{Alias: p.order[0], Column: p.tables[p.order[0]].Def.Key()}}
	}
	p.columns = make([]string, len(p.projs))
	p.projCols = make([]int, len(p.projs))
	for i, pr := range p.projs {
		p.columns[i] = pr.Alias + "." + pr.Column
		p.projCols[i] = -1
		if t := p.tables[pr.Alias]; t != nil {
			p.projCols[i] = t.ColumnIndex(pr.Column)
		}
	}
	return p, nil
}

// bindsInFromOrder reports whether the plan binds the aliases in FROM
// order, start first.
func (p *blockPlan) bindsInFromOrder() bool {
	if p.slot[p.start] != 0 {
		return false
	}
	for i, st := range p.steps {
		if p.slot[st.alias] != i+1 {
			return false
		}
	}
	return true
}

// String renders the plan in the notation of the optimizer's
// Estimate.Plan: the start relation's access path ("index(Table.column)"
// or "scan") and alias, then each step's algorithm and alias — "inl",
// "hash", "hash|inl" for a hash step that probes a secondary index
// instead while the intermediate is the smaller side, "cartesian" — and
// a hash step's fused key columns, as in "hash t5 [+title]"; then the
// aliases left out, as in "(t1 t2 implied by parent keys)".
func (p *blockPlan) String() string {
	var b strings.Builder
	if p.startIndex != nil {
		fmt.Fprintf(&b, "index(%s.%s) %s", p.tables[p.start].Def.Name, p.startIndex.col, p.start)
	} else {
		b.WriteString("scan " + p.start)
	}
	for _, st := range p.steps {
		how := "hash"
		switch {
		case st.kind == stepINL:
			how = "inl"
		case st.kind == stepCartesian:
			how = "cartesian"
		case st.index != nil:
			how = "hash|inl"
		}
		b.WriteString(" -> " + how + " " + st.alias)
		if st.kind == stepHash && len(st.fused) > 0 {
			cols := make([]string, len(st.fused))
			for i, f := range st.fused {
				cols[i] = "+" + f[0].Column
			}
			b.WriteString(" [" + strings.Join(cols, " ") + "]")
		}
	}
	if len(p.implied) > 0 {
		b.WriteString(" (" + strings.Join(p.implied, " ") + " implied by parent keys)")
	}
	return b.String()
}

// impliedAliases returns, in FROM order, the aliases of b a plan may
// leave out because the tree already guarantees their one join: an alias
// X that is not projected (nor, in a block without projections, first),
// under no filter and no cross predicate, and named by exactly one
// predicate, a declared join X.key = Y.fk where fk is Y's foreign key to
// X's table, Y's table has exactly one parent edge, and Y's table is not
// the document root's. Every live row of such a Y has a non-NULL fk
// naming exactly one live row of X (invariant 26), so the join neither
// drops nor repeats a row of Y. Dropping X may leave Y with one
// predicate, so the rule runs until nothing changes. It reads the block
// and the catalog's keys, foreign keys, parent edges and root table
// alone: a catalog that records no root table drops nothing.
func impliedAliases(b *sqlast.Block, cat *relational.Catalog) []string {
	if cat.RootTable == "" || len(b.Joins) == 0 {
		return nil
	}
	def := func(alias string) *relational.Table {
		for _, t := range b.Tables {
			if t.Alias == alias {
				return cat.Table(t.Table)
			}
		}
		return nil
	}
	pinned := make(map[string]bool)
	for _, pr := range b.Projects {
		pinned[pr.Alias] = true
	}
	if len(b.Projects) == 0 {
		pinned[b.Tables[0].Alias] = true
	}
	for _, f := range b.Filters {
		pinned[f.Col.Alias] = true
		if f.RightCol != nil {
			pinned[f.RightCol.Alias] = true
		}
	}
	for _, j := range b.Joins {
		if j.Left.Alias == j.Right.Alias {
			pinned[j.Left.Alias] = true
		}
	}
	gone := make(map[string]bool)
	for changed := true; changed; {
		changed = false
		for _, tref := range b.Tables {
			x := tref.Alias
			if pinned[x] || gone[x] {
				continue
			}
			var only *sqlast.Join
			n := 0
			for i := range b.Joins {
				j := &b.Joins[i]
				if (j.Left.Alias == x || j.Right.Alias == x) && !gone[j.Left.Alias] && !gone[j.Right.Alias] {
					only = j
					n++
				}
			}
			if n != 1 {
				continue
			}
			key, fk := only.Left, only.Right
			if fk.Alias == x {
				key, fk = fk, key
			}
			xt, yt := def(x), def(fk.Alias)
			if xt == nil || yt == nil || key.Column != xt.Key() || len(yt.Parents) != 1 || yt.Name == cat.RootTable {
				continue
			}
			if c := yt.Column(fk.Column); c == nil || c.FKRef != xt.Name {
				continue
			}
			gone[x] = true
			changed = true
		}
	}
	var implied []string
	for _, tref := range b.Tables {
		if gone[tref.Alias] {
			implied = append(implied, tref.Alias)
		}
	}
	return implied
}

// pred is a predicate between two aliases of a block — a declared join,
// read as an equality, or a cross filter — with the slots of its two
// aliases; edge is set when it is an equality between columns of one
// kind, which alone may bind a join or fuse into one, and taken once a
// step binds by it or applies it.
type pred struct {
	f     sqlast.Filter
	ends  [2]int
	edge  bool
	taken bool
}

// oneKind reports whether the two columns a predicate compares have one
// kind (see columnKind). A column that does not resolve counts as one:
// the step that reads it reports the error.
func (p *blockPlan) oneKind(f *sqlast.Filter) bool {
	l := p.tables[f.Col.Alias].Def.Column(f.Col.Column)
	r := p.tables[f.RightCol.Alias].Def.Column(f.RightCol.Column)
	return l == nil || r == nil || columnKind(l) == columnKind(r)
}

// across returns the slot at the other end of an edge from s, -1 when
// the predicate is no edge or s is neither of its ends.
func (pr *pred) across(s int) int {
	switch {
	case !pr.edge:
		return -1
	case s == pr.ends[0]:
		return pr.ends[1]
	case s == pr.ends[1]:
		return pr.ends[0]
	}
	return -1
}

// nextAlias picks the slot the next step binds, by a greedy rule that
// reads nothing but the block and its columns' kinds: the unbound alias
// with the most edges (declared joins and equality cross filters between
// columns of one kind) into the bound set, ties going to the one with the
// most recently bound neighbour, then to FROM order. It returns -1 when
// no unbound alias has an edge into the bound set.
func nextAlias(preds []pred, boundAt []int) int {
	best, bestN, bestRecent := -1, 0, -1
	for s, at := range boundAt {
		if at >= 0 {
			continue
		}
		n, recent := 0, -1
		for i := range preds {
			if o := preds[i].across(s); o >= 0 && boundAt[o] >= 0 {
				n++
				recent = max(recent, boundAt[o])
			}
		}
		if n > bestN || n > 0 && n == bestN && recent > bestRecent {
			best, bestN, bestRecent = s, n, recent
		}
	}
	return best
}

// joinEdge picks the edge slot s is bound by: the first between s and a
// bound alias, declared joins coming before cross filters in preds. An
// equality between columns of two kinds is never one: it stays a cross
// filter, compared through the integer's decimal string. Every other
// predicate into the bound set becomes a cross filter of the step.
func joinEdge(preds []pred, boundAt []int, s int) int {
	for i := range preds {
		if o := preds[i].across(s); o >= 0 && boundAt[o] >= 0 {
			return i
		}
	}
	return -1
}

// sides returns the equality f's column on alias, then its other one.
func sides(f *sqlast.Filter, alias string) [2]sqlast.ColumnRef {
	if f.Col.Alias == alias {
		return [2]sqlast.ColumnRef{f.Col, *f.RightCol}
	}
	return [2]sqlast.ColumnRef{*f.RightCol, f.Col}
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
// index join's (one probe, every matched tuple read); a literal that
// matches nothing — NULL, or a value that does not convert to the
// column's kind — answers no position without a probe. The caller still
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
	lit := cf[p.startLookup].lit
	if lit.IsNull() {
		return nil, cf, true // matches nothing: no probe
	}
	positions = t.lookup(p.startIndex, lit)
	stats.Probes++
	heapBytes := t.Def.RowBytes()
	for _, pos := range positions {
		stats.TuplesRead++
		stats.BytesRead += t.probeRowBytes(pos, heapBytes)
	}
	return positions, cf, true
}

// resolveJoinCols resolves a join step's column indices, the new side
// first.
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

// compiledFilter is one constant (or same-alias column-column) filter
// with its column indices and literal resolved once per block instead of
// once per row, the literal converted to its column's kind (see convert)
// and a column-column comparison's cast decided from the two columns'
// kinds. Resolution errors are deferred: a missing column or unbound
// parameter only surfaces when at least one row is actually evaluated.
type compiledFilter struct {
	op       sqlast.CmpOp
	colIdx   int
	rightIdx int // -1: compare against lit
	lit      Value
	cast     bool // the two columns differ in kind (see compareAs)
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
			} else {
				cf.cast = t.kind(cf.colIdx) != t.kind(cf.rightIdx)
			}
		} else {
			cf.lit, cf.err = literalValue(f.Value, params)
			cf.lit = convert(cf.lit, t.kind(cf.colIdx))
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

// passesCompiledAt evaluates compiled filters on the row at a global
// position (the scalar path used for probed rows, where gathering a
// vector per probe would cost more than it saves): only the filtered
// cells are read, so no row is materialized.
func passesCompiledAt(t *Table, pos int, cf []compiledFilter) (bool, error) {
	for i := range cf {
		f := &cf[i]
		if f.err != nil {
			return false, f.err
		}
		left, right := t.Cell(pos, f.colIdx), f.lit
		if f.rightIdx >= 0 {
			right = t.Cell(pos, f.rightIdx)
		}
		if left.IsNull() || right.IsNull() || !opHolds(f.op, compareAs(left, right, f.cast)) {
			return false, nil
		}
	}
	return true, nil
}
