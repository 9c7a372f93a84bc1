// Package optimizer implements the relational cost model LegoDB uses to
// rank storage configurations. Like the Volcano-derived optimizer of the
// paper (Section 5), it estimates, for each SPJ block, the cost of the
// best plan it can find — accounting for the number of seeks, the amount
// of data read and written, and CPU time — using the catalog statistics
// produced by the fixed mapping.
//
// Physical assumptions, documented for reproducibility:
//
//   - rows are stored fixed-width (CHAR semantics; NULL columns still
//     occupy space), as in the paper's SQL Server 6.5 validation target;
//   - the index set is part of the physical design and is carried by the
//     catalog: a plan may enter a relation through a column only if it is
//     an access path (relational.Column.AccessPath) — the key (<T>_id)
//     column always, any other column when the design flags it with a
//     secondary index. The engine's planner reads the same rule;
//   - with no column flagged this is the paper's assumption that each
//     relation is indexed on its key only: a join can run as an index
//     nested-loop when it enters the new relation through its key, joins
//     entering through a foreign key and selections on data columns cost
//     a scan (this matches Table 2 of the paper, where the cost over the
//     un-partitioned reviews table does not change with the NYT
//     percentage). Searches, figures and Advice.Cost are priced this way;
//   - with columns flagged, an equality-with-constant selection on one
//     costs a probe plus the matched rows fetched at random, a join may
//     enter a relation through one while the intermediate result is the
//     smaller side, and every write pays IndexWriteCost per index it
//     maintains. ChooseIndexes picks the flags from a workload by that
//     trade, the way the search picks inlining;
//   - join orders are chosen greedily from the most selective base
//     relation, choosing per step between index nested-loop and hash
//     join.
package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"legodb/internal/faults"
	"legodb/internal/relational"
	"legodb/internal/sqlast"
)

// CostModel holds the constants of the cost function. Units are
// arbitrary "cost units"; experiments report ratios.
type CostModel struct {
	// PageSize is the IO unit in bytes.
	PageSize float64
	// SeekCost is charged per random IO (starting a scan, one index
	// probe miss).
	SeekCost float64
	// PageIOCost is charged per page read sequentially.
	PageIOCost float64
	// RandomIOPenalty multiplies page IO fetched through an index.
	RandomIOPenalty float64
	// ProbeCost is the CPU+IO cost of one index probe (descending the
	// index, warm caches).
	ProbeCost float64
	// CPUTupleCost is charged per tuple handled.
	CPUTupleCost float64
	// HashCost is charged per tuple hashed (build or probe).
	HashCost float64
	// OutputByteCost is charged per result byte materialized.
	OutputByteCost float64
	// DefaultEqSelectivity applies when no distinct count is known.
	DefaultEqSelectivity float64
	// DefaultRangeSelectivity applies to <, <=, >, >= without bounds.
	DefaultRangeSelectivity float64
	// WriteByteCost is charged per row byte written by update operations
	// (fixed-width rows rewrite whole rows).
	WriteByteCost float64
	// IndexWriteCost is charged per index maintained per row written.
	IndexWriteCost float64
}

// DefaultModel returns the calibrated constants used in the experiments.
func DefaultModel() CostModel {
	return CostModel{
		PageSize:                4096,
		SeekCost:                8,
		PageIOCost:              1,
		RandomIOPenalty:         4,
		ProbeCost:               0.5,
		CPUTupleCost:            0.01,
		HashCost:                0.012,
		OutputByteCost:          0.0004,
		DefaultEqSelectivity:    0.05,
		DefaultRangeSelectivity: 1.0 / 3,
		WriteByteCost:           0.002,
		IndexWriteCost:          1,
	}
}

// Optimizer estimates query costs over one catalog.
type Optimizer struct {
	Model CostModel
	Cat   *relational.Catalog
}

// New returns an optimizer over the catalog with the default cost model.
func New(cat *relational.Catalog) *Optimizer {
	return &Optimizer{Model: DefaultModel(), Cat: cat}
}

// Estimate is the optimizer's verdict on a block or query.
type Estimate struct {
	Cost float64
	Rows float64
	// Plan is a human-readable join order with the access path of every
	// relation, for debugging and reports: "scan" or "index(Table.column)"
	// and the start relation's alias, then one "inl"/"hash"/"cartesian"
	// step per joined alias; blocks are joined by " UNION ".
	Plan string
}

// QueryCost sums the best-plan costs of all blocks. Blocks of one query
// share scans: a table already read by an earlier block costs only CPU
// when read again (the paper's optimizer descends from the multi-query
// optimizer of Roy et al. [16], which shares common sub-expressions; a
// sorted-outer-union publishing query re-reads its hub relations in
// every block).
func (o *Optimizer) QueryCost(q *sqlast.Query) (Estimate, error) {
	return o.queryCost(q, true)
}

// queryCost is QueryCost, rendering Estimate.Plan only when asked.
func (o *Optimizer) queryCost(q *sqlast.Query, render bool) (Estimate, error) {
	if err := faults.Inject(faults.SiteQueryCost); err != nil {
		return Estimate{}, err
	}
	var total Estimate
	var plans []string
	scanned := make(map[string]bool)
	for _, b := range q.Blocks {
		est, err := o.blockCost(b, scanned, render)
		if err != nil {
			return Estimate{}, fmt.Errorf("optimizer: %s: %w", q.Name, err)
		}
		total.Cost += est.Cost
		total.Rows += est.Rows
		if render {
			plans = append(plans, est.Plan)
		}
	}
	total.Plan = strings.Join(plans, " UNION ")
	return total, nil
}

// WorkloadCost returns the weighted average cost of translated queries:
// Σ weight_i · cost_i / Σ weight_i.
func (o *Optimizer) WorkloadCost(queries []*sqlast.Query, weights []float64) (float64, error) {
	if len(queries) != len(weights) {
		return 0, fmt.Errorf("optimizer: %d queries, %d weights", len(queries), len(weights))
	}
	total, wsum := 0.0, 0.0
	for i, q := range queries {
		est, err := o.queryCost(q, false)
		if err != nil {
			return 0, err
		}
		total += est.Cost * weights[i]
		wsum += weights[i]
	}
	if wsum == 0 {
		return 0, fmt.Errorf("optimizer: zero total weight")
	}
	return total / wsum, nil
}

// rel is the per-alias working state during block costing. A block's
// relations sit in FROM order, and edges and join steps name them by
// that position.
type rel struct {
	alias   string
	table   *relational.Table
	rows    float64 // after local selections
	rawRows float64
	width   float64
	filters int
	// lookupCol is the column of the first equality-with-constant
	// selection on an access path — the one the engine answers by an
	// index lookup when it starts here — and lookupRows the rows it
	// matches before the other selections apply. Empty: scans only.
	lookupCol  string
	lookupRows float64
	// group is the position of the block's first relation over the same
	// table. Scans and hash builds are shared per table, so the join
	// search keeps their state per group.
	group int
	// incident lists the edges between this relation and another one of
	// the block, in edge order: the only edges a join step attaching it
	// can apply.
	incident []int
}

// edge is a join predicate between the relations at positions a and b,
// on the columns aCol and bCol (nil when the table has no such column).
type edge struct {
	a, b       int
	aCol, bCol *relational.Column
}

// newEdge resolves a join predicate's aliases and columns.
func newEdge(rels []rel, left, right sqlast.ColumnRef) edge {
	e := edge{a: relIndex(rels, left.Alias), b: relIndex(rels, right.Alias)}
	if e.a >= 0 {
		e.aCol = rels[e.a].table.Column(left.Column)
	}
	if e.b >= 0 {
		e.bCol = rels[e.b].table.Column(right.Column)
	}
	return e
}

// Per-table scan state of a join search: the table has been read (its
// re-scans cost CPU only), and its hash build exists.
const (
	tableScanned uint8 = 1 << iota
	tableHashed
)

// BlockCost estimates the best plan cost for a block in isolation.
func (o *Optimizer) BlockCost(b *sqlast.Block) (Estimate, error) {
	return o.blockCost(b, make(map[string]bool), true)
}

// BlockCostShared is the block-level costing unit that QueryCost composes:
// it estimates the best plan for one block given the tables already read
// by earlier blocks of the same query, and records into scanned the tables
// (and shared hash builds, under "hash:"-prefixed entries) the chosen plan
// reads. The estimate depends on the scanned set only through the entries
// for the block's own table names, and the entries it adds are likewise
// confined to those names — the invariant that lets the logical-plan layer
// (internal/plan) memoize (cost, added entries) across structurally
// identical blocks and replay them into a different query's scan state.
// It prices without rendering: the estimate's Plan is empty.
func (o *Optimizer) BlockCostShared(b *sqlast.Block, scanned map[string]bool) (Estimate, error) {
	if scanned == nil {
		scanned = make(map[string]bool)
	}
	return o.blockCost(b, scanned, false)
}

// relIndex returns the position of the relation bound under the alias,
// or -1.
func relIndex(rels []rel, alias string) int {
	for i := range rels {
		if rels[i].alias == alias {
			return i
		}
	}
	return -1
}

// blockCost estimates a block's cost; scanned carries the tables already
// read by earlier blocks of the same query (their re-scans cost CPU
// only). The plan text is rendered only when render is set.
func (o *Optimizer) blockCost(b *sqlast.Block, scanned map[string]bool, render bool) (Estimate, error) {
	if len(b.Tables) == 0 {
		return Estimate{}, fmt.Errorf("block has no tables")
	}
	rels := make([]rel, len(b.Tables))
	for i, tref := range b.Tables {
		t := o.Cat.Table(tref.Table)
		if t == nil {
			return Estimate{}, fmt.Errorf("unknown table %q", tref.Table)
		}
		if relIndex(rels[:i], tref.Alias) >= 0 {
			return Estimate{}, fmt.Errorf("duplicate alias %q", tref.Alias)
		}
		r := rel{alias: tref.Alias, table: t, rows: t.Rows, rawRows: t.Rows, width: t.RowBytes(), group: i}
		if r.rows < 1 {
			r.rows = 1
		}
		if r.rawRows < 1 {
			r.rawRows = 1
		}
		for j := range rels[:i] {
			if rels[j].table == t {
				r.group = j
				break
			}
		}
		rels[i] = r
	}
	// Local selections reduce the estimated rows of their alias.
	edges := make([]edge, 0, len(b.Joins)+len(b.Filters))
	for _, j := range b.Joins {
		edges = append(edges, newEdge(rels, j.Left, j.Right))
	}
	for _, f := range b.Filters {
		if f.RightCol != nil {
			if f.RightCol.Alias != f.Col.Alias {
				edges = append(edges, newEdge(rels, f.Col, *f.RightCol))
				continue
			}
		}
		ri := relIndex(rels, f.Col.Alias)
		if ri < 0 {
			return Estimate{}, fmt.Errorf("filter on unknown alias %q", f.Col.Alias)
		}
		r := &rels[ri]
		sel := o.selectivity(r.table, f)
		r.rows *= sel
		if r.rows < 0.01 {
			r.rows = 0.01
		}
		r.filters++
		if r.lookupCol == "" && f.Op == sqlast.OpEq && f.RightCol == nil {
			if c := r.table.Column(f.Col.Column); c != nil && c.AccessPath() {
				r.lookupCol, r.lookupRows = c.Name, r.rawRows*sel
			}
		}
	}
	// Index each relation's edges once. An edge naming an unknown alias,
	// or the same alias twice, links no two relations and never applies.
	incident := make([]int, 0, 2*len(edges))
	for i := range rels {
		from := len(incident)
		for k, e := range edges {
			if e.a >= 0 && e.b >= 0 && e.a != e.b && (e.a == i || e.b == i) {
				incident = append(incident, k)
			}
		}
		rels[i].incident = incident[from:len(incident):len(incident)]
	}
	est := o.greedyJoin(rels, edges, scanned, render)
	// Output cost: result rows times projected width.
	projWidth := 0.0
	for _, p := range b.Projects {
		ri := relIndex(rels, p.Alias)
		if ri < 0 {
			return Estimate{}, fmt.Errorf("projection on unknown alias %q", p.Alias)
		}
		if c := rels[ri].table.Column(p.Column); c != nil {
			projWidth += float64(c.Size)
		}
	}
	est.Cost += est.Rows * projWidth * o.Model.OutputByteCost
	return est, nil
}

// selectivity estimates the fraction of rows passing a constant filter.
func (o *Optimizer) selectivity(t *relational.Table, f sqlast.Filter) float64 {
	col := t.Column(f.Col.Column)
	switch f.Op {
	case sqlast.OpEq:
		if f.RightCol != nil { // same-alias column equality
			return o.Model.DefaultEqSelectivity
		}
		if col != nil && col.Distinct > 0 {
			return 1 / col.Distinct
		}
		return o.Model.DefaultEqSelectivity
	case sqlast.OpNe:
		if col != nil && col.Distinct > 0 {
			return 1 - 1/col.Distinct
		}
		return 1 - o.Model.DefaultEqSelectivity
	default:
		if col != nil && col.Max > col.Min && f.Value.IsInt {
			below := cumulativeBelow(col, float64(f.Value.Int))
			switch f.Op {
			case sqlast.OpLt, sqlast.OpLe:
				return math.Max(below, 0.001)
			default:
				return math.Max(1-below, 0.001)
			}
		}
		return o.Model.DefaultRangeSelectivity
	}
}

// cumulativeBelow estimates the fraction of column values below v: from
// the equi-width histogram when present (with linear interpolation inside
// the boundary bucket), else assuming a uniform distribution over
// [Min, Max].
func cumulativeBelow(col *relational.Column, v float64) float64 {
	lo, hi := float64(col.Min), float64(col.Max)
	pos := (v - lo) / (hi - lo)
	pos = math.Max(0, math.Min(1, pos))
	if len(col.Hist) == 0 {
		return pos
	}
	buckets := float64(len(col.Hist))
	exact := pos * buckets
	full := int(exact)
	below := 0.0
	for i := 0; i < full && i < len(col.Hist); i++ {
		below += col.Hist[i]
	}
	if full < len(col.Hist) {
		below += col.Hist[full] * (exact - float64(full))
	}
	return below
}

// scanCost is the cost of reading a relation sequentially. Tables
// already read in the same query (per the join search's scan state) cost
// only CPU. The state is not modified; a scan is committed once a plan
// step is actually chosen.
func (o *Optimizer) scanCost(r *rel, state []uint8) float64 {
	if state[r.group]&tableScanned != 0 {
		return r.rawRows * o.Model.CPUTupleCost
	}
	pages := math.Ceil(r.rawRows * r.width / o.Model.PageSize)
	return o.Model.SeekCost + pages*o.Model.PageIOCost + r.rawRows*o.Model.CPUTupleCost
}

// startCost prices binding the start relation: one index probe plus the
// matched rows fetched at random (each its share of a page, plus handling
// the tuple — joinStep's per-probe terms) when an equality selection sits
// on an access path and that beats the scan, the scan (committed to the
// scan state) otherwise. lookup reports which.
func (o *Optimizer) startCost(r *rel, state []uint8) (cost float64, lookup bool) {
	m := o.Model
	scan := o.scanCost(r, state)
	if r.lookupCol != "" {
		lookup := m.ProbeCost + r.lookupRows*(r.width/m.PageSize*m.PageIOCost*m.RandomIOPenalty+m.CPUTupleCost)
		if lookup < scan {
			return lookup, true
		}
	}
	state[r.group] |= tableScanned
	return scan, false
}

// startPlan renders the start relation's access path.
func startPlan(r *rel, lookup bool) string {
	if lookup {
		return "index(" + r.table.Name + "." + r.lookupCol + ") " + r.alias
	}
	return "scan " + r.alias
}

// stepKind is the algorithm of one join step.
type stepKind uint8

const (
	stepINL stepKind = iota
	stepHash
	stepCartesian
)

func (k stepKind) String() string {
	switch k {
	case stepINL:
		return "inl"
	case stepHash:
		return "hash"
	default:
		return "cartesian"
	}
}

// joinScratch is the working memory of one block's join search, reused
// across its start candidates and steps.
type joinScratch struct {
	joined, consumed []bool
	conn, bestConn   []int
	// before, state and best hold the per-table scan state (indexed by
	// relation group): on entry, during one start's search, and after
	// the cheapest start's.
	before, state, best []uint8
}

// greedyJoin orders the join greedily: start from the cheapest filtered
// relation, then repeatedly attach the connected relation with the
// lowest incremental cost, choosing between index nested-loop (when the
// join enters the new relation through its key) and hash join. Every
// remaining join predicate whose sides are both bound applies as a
// selectivity reduction as soon as it becomes applicable. The scan
// state the cheapest plan leaves is committed to scanned.
func (o *Optimizer) greedyJoin(rels []rel, edges []edge, scanned map[string]bool, render bool) Estimate {
	n := len(rels)
	flags := make([]uint8, 3*n)
	sc := joinScratch{before: flags[:n], state: flags[n : 2*n], best: flags[2*n:]}
	for i := range rels {
		if rels[i].group == i {
			if scanned[rels[i].table.Name] {
				sc.before[i] |= tableScanned
			}
			if scanned[hashKey(rels[i].table)] {
				sc.before[i] |= tableHashed
			}
		}
	}
	copy(sc.best, sc.before)
	var best Estimate
	if n == 1 {
		copy(sc.state, sc.before)
		c, lookup := o.startCost(&rels[0], sc.state)
		best = Estimate{Cost: c, Rows: rels[0].rows}
		if render {
			best.Plan = startPlan(&rels[0], lookup)
		}
		copy(sc.best, sc.state)
	} else {
		// Candidate start relations: the globally smallest, and the
		// smallest among locally-filtered relations (starting at a
		// filtered child lets the plan probe ancestors through their
		// keys). Keep the cheaper resulting plan; its scan state alone
		// commits.
		minRows, minFiltered := 0, -1
		for a := range rels {
			if rels[a].rows < rels[minRows].rows {
				minRows = a
			}
			if rels[a].filters > 0 && (minFiltered < 0 || rels[a].rows < rels[minFiltered].rows) {
				minFiltered = a
			}
		}
		sc.joined = make([]bool, n)
		sc.consumed = make([]bool, len(edges))
		best.Cost = math.Inf(1)
		starts := [2]int{minRows, -1}
		if minFiltered != minRows {
			starts[1] = minFiltered
		}
		for _, start := range starts {
			if start < 0 {
				continue
			}
			copy(sc.state, sc.before)
			est := o.greedyJoinFrom(rels, edges, start, render, &sc)
			if est.Cost < best.Cost {
				best = est
				copy(sc.best, sc.state)
			}
		}
	}
	for i := range rels {
		if rels[i].group != i {
			continue
		}
		added := sc.best[i] &^ sc.before[i]
		if added&tableScanned != 0 {
			scanned[rels[i].table.Name] = true
		}
		if added&tableHashed != 0 {
			scanned[hashKey(rels[i].table)] = true
		}
	}
	return best
}

// hashKey is the scan-set entry recording a shared hash build of t.
func hashKey(t *relational.Table) string { return "hash:" + t.Name }

// greedyJoinFrom runs the greedy join ordering from a fixed start
// relation, updating sc.state with the scans and hash builds it commits.
func (o *Optimizer) greedyJoinFrom(rels []rel, edges []edge, start int, render bool, sc *joinScratch) Estimate {
	clear(sc.joined)
	clear(sc.consumed)
	joined, consumed := sc.joined, sc.consumed
	joined[start] = true
	cost, lookup := o.startCost(&rels[start], sc.state)
	rows := rels[start].rows
	var plan strings.Builder
	if render {
		plan.WriteString(startPlan(&rels[start], lookup))
	}
	for nJoined := 1; nJoined < len(rels); nJoined++ {
		best := -1
		bestCost := math.Inf(1)
		bestRows := 0.0
		var bestHow stepKind
		sc.bestConn = sc.bestConn[:0]
		for a := range rels {
			if joined[a] {
				continue
			}
			// The unconsumed edges linking the joined set to a.
			conn := sc.conn[:0]
			for _, k := range rels[a].incident {
				other := edges[k].a
				if other == a {
					other = edges[k].b
				}
				if !consumed[k] && joined[other] {
					conn = append(conn, k)
				}
			}
			sc.conn = conn
			if len(conn) == 0 {
				continue
			}
			stepCost, stepRows, how := o.joinStep(rels, rows, a, edges, conn, sc.state)
			if stepCost < bestCost {
				best, bestCost, bestRows, bestHow = a, stepCost, stepRows, how
				sc.conn, sc.bestConn = sc.bestConn, conn
			}
		}
		if best < 0 {
			// Disconnected component: fall back to a cartesian-ish merge
			// with the smallest remaining relation.
			for a := range rels {
				if joined[a] {
					continue
				}
				r := &rels[a]
				stepCost := o.scanCost(r, sc.state) + rows*r.rows*o.Model.CPUTupleCost
				if best < 0 || stepCost < bestCost {
					best, bestCost, bestHow = a, stepCost, stepCartesian
					bestRows = rows * r.rows
				}
			}
		}
		joined[best] = true
		switch bestHow {
		case stepHash:
			sc.state[rels[best].group] |= tableScanned | tableHashed
		case stepCartesian:
			sc.state[rels[best].group] |= tableScanned
		}
		for _, k := range sc.bestConn {
			consumed[k] = true
		}
		cost += bestCost
		rows = bestRows
		if render {
			plan.WriteString(" -> ")
			plan.WriteString(bestHow.String())
			plan.WriteString(" ")
			plan.WriteString(rels[best].alias)
		}
	}
	return Estimate{Cost: cost, Rows: rows, Plan: plan.String()}
}

// joinStep costs attaching relation a to the current intermediate result,
// applying every connecting predicate jointly (independent selectivities
// multiply). The scan state is consulted read-only.
func (o *Optimizer) joinStep(rels []rel, curRows float64, a int, edges []edge, connecting []int, state []uint8) (float64, float64, stepKind) {
	r := &rels[a]
	outRows := curRows * r.rows
	// perProbe is the number of rows of r one index probe fetches: one
	// through the key, the column's average fan-out through a secondary
	// index; 0 while no connecting predicate enters r by an access path.
	perProbe := 0.0
	for _, i := range connecting {
		// col is the predicate's column on r's side, otherCol the one on
		// the joined side.
		e := &edges[i]
		col, otherCol, other := e.aCol, e.bCol, e.b
		if e.b == a {
			col, otherCol, other = e.bCol, e.aCol, e.a
		}
		den := math.Max(colDistinct(r, col), colDistinct(&rels[other], otherCol))
		if den > 1 {
			outRows /= den
		}
		// NULL join keys never match: scale by the non-null share of
		// both sides (partitioned FK columns carry a null fraction).
		if col != nil {
			if col.NullFraction > 0 {
				outRows *= 1 - col.NullFraction
			}
			switch {
			case col.Key:
				perProbe = 1
			case col.Index && perProbe == 0 && curRows < r.rawRows:
				// The engine probes a secondary index only while the
				// intermediate is the smaller side.
				perProbe = math.Max(1, r.rawRows*(1-col.NullFraction)/colDistinct(r, col))
			}
		}
		if otherCol != nil && otherCol.NullFraction > 0 {
			outRows *= 1 - otherCol.NullFraction
		}
	}
	if outRows < 0.01 {
		outRows = 0.01
	}

	// Hash join: scan + build the new relation, probe with current rows.
	// Like scans, hash builds are shared across the blocks of one query.
	buildCPU := r.rows * o.Model.HashCost
	if state[r.group]&tableHashed != 0 {
		buildCPU = 0
	}
	hash := o.scanCost(r, state) +
		buildCPU +
		curRows*o.Model.HashCost +
		outRows*o.Model.CPUTupleCost

	// Index nested-loop: available when some join predicate enters r
	// through an access path. With no secondary index chosen that is the
	// key alone (joins entering a child table through its foreign key run
	// as hash joins, matching the scan-based plans of the paper's Table
	// 2), and every probe fetches one row.
	inl := math.Inf(1)
	if perProbe > 0 {
		inl = curRows*(o.Model.ProbeCost+
			perProbe*(r.width/o.Model.PageSize*o.Model.PageIOCost*o.Model.RandomIOPenalty)+
			perProbe*o.Model.CPUTupleCost) +
			outRows*o.Model.CPUTupleCost
	}
	if inl < hash {
		return inl, outRows, stepINL
	}
	return hash, outRows, stepHash
}

// colDistinct is the distinct count of r's column c (nil: not a column
// of r), or a tenth of r's rows when unknown.
func colDistinct(r *rel, c *relational.Column) float64 {
	if c != nil && c.Distinct > 0 {
		return c.Distinct
	}
	return math.Max(1, r.rawRows/10)
}

// Explain renders the estimates of all blocks of a query, for reports.
func (o *Optimizer) Explain(q *sqlast.Query) (string, error) {
	var b strings.Builder
	total := 0.0
	for i, blk := range q.Blocks {
		est, err := o.BlockCost(blk)
		if err != nil {
			return "", err
		}
		total += est.Cost
		fmt.Fprintf(&b, "block %d: cost=%.1f rows=%.0f plan=%s\n", i+1, est.Cost, est.Rows, est.Plan)
	}
	fmt.Fprintf(&b, "total: %.1f\n", total)
	return b.String(), nil
}

// TableSizes returns "table rows width" lines sorted by name; a debugging
// aid for experiments.
func (o *Optimizer) TableSizes() string {
	names := append([]string(nil), o.Cat.Order...)
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		t := o.Cat.Tables[n]
		fmt.Fprintf(&b, "%-24s %12.0f %8.0f\n", n, t.Rows, t.RowBytes())
	}
	return b.String()
}
