package optimizer

import (
	"legodb/internal/relational"
	"legodb/internal/sqlast"
	"legodb/internal/xquery"
)

// TranslatedWorkload is a workload bound to one catalog: its queries
// translated to SQL and its updates resolved to the relations they
// write, each with its weight.
type TranslatedWorkload struct {
	Queries []WeightedQuery
	Updates []WeightedUpdate
}

// WeightedQuery is one translated workload query.
type WeightedQuery struct {
	Query  *sqlast.Query
	Weight float64
}

// WeightedUpdate is one resolved workload update.
type WeightedUpdate struct {
	Update  *xquery.Update
	Targets []xquery.UpdateTarget
	Weight  float64
}

// indexCandidate is one column the workload could use as an access path,
// with the queries (ascending) that select or join on it — the only ones
// whose cost its flag can move.
type indexCandidate struct {
	col     *relational.Column
	queries []int
}

// ChooseIndexes picks the secondary indexes of a physical design: the
// paper's method one level down, where the same workload-and-cost
// argument that picks inlining picks the index set. Candidates are the
// columns the workload filters by equality with a constant and the
// non-key columns its joins enter relations through; starting from the
// key-only design, the candidate whose flag lowers the weighted workload
// cost most — reads saved minus IndexWriteCost on every write of its
// table — is flagged, and again, until no flag lowers it. The result is
// in catalog order and is a function of the catalog's statistics and the
// workload alone: cat is not changed and the flags it carries are
// ignored. Queries the optimizer cannot cost count for nothing.
func ChooseIndexes(cat *relational.Catalog, w TranslatedWorkload) []relational.IndexRef {
	work := cat.Clone()
	work.SetIndexes(nil)
	o := New(work)

	cands := indexCandidates(work, w)
	queryCost := func(i int) float64 {
		est, err := o.queryCost(w.Queries[i].Query, false)
		if err != nil {
			return 0
		}
		return est.Cost * w.Queries[i].Weight
	}
	writeCost := func() float64 {
		total := 0.0
		for _, u := range w.Updates {
			if c, err := o.UpdateCost(u.Update, u.Targets); err == nil {
				total += c * u.Weight
			}
		}
		return total
	}
	costs := make([]float64, len(w.Queries))
	for i := range costs {
		costs[i] = queryCost(i)
	}
	writes := writeCost()
	for {
		var best *indexCandidate
		bestGain := 0.0
		for _, c := range cands {
			if c.col.Index {
				continue
			}
			c.col.Index = true
			gain := writes - writeCost()
			for _, i := range c.queries {
				gain += costs[i] - queryCost(i)
			}
			c.col.Index = false
			if gain > bestGain {
				best, bestGain = c, gain
			}
		}
		if best == nil {
			return work.Indexes()
		}
		best.col.Index = true
		writes = writeCost()
		for _, i := range best.queries {
			costs[i] = queryCost(i)
		}
	}
}

// AccessColumns lists the columns through which a query's plans could
// enter their relations given an index: those a block selects on by
// equality with a constant and those on either side of a join (declared,
// or an equality between two aliases). A column used twice is listed
// twice.
func AccessColumns(q *sqlast.Query) []relational.IndexRef {
	var out []relational.IndexRef
	for _, b := range q.Blocks {
		tableOf := make(map[string]string, len(b.Tables))
		for _, tref := range b.Tables {
			if _, dup := tableOf[tref.Alias]; !dup {
				tableOf[tref.Alias] = tref.Table
			}
		}
		note := func(ref sqlast.ColumnRef) {
			out = append(out, relational.IndexRef{Table: tableOf[ref.Alias], Column: ref.Column})
		}
		for _, j := range b.Joins {
			note(j.Left)
			note(j.Right)
		}
		for _, f := range b.Filters {
			switch {
			case f.Op != sqlast.OpEq:
			case f.RightCol == nil:
				note(f.Col)
			case f.RightCol.Alias != f.Col.Alias:
				note(f.Col)
				note(*f.RightCol)
			}
		}
	}
	return out
}

// indexCandidates lists, in catalog order, the access columns of the
// workload's queries, keys excepted (they are access paths already),
// each with the queries that use it.
func indexCandidates(cat *relational.Catalog, w TranslatedWorkload) []*indexCandidate {
	found := make(map[*relational.Column]*indexCandidate)
	for qi, wq := range w.Queries {
		for _, ref := range AccessColumns(wq.Query) {
			t := cat.Table(ref.Table)
			if t == nil {
				continue
			}
			col := t.Column(ref.Column)
			if col == nil || col.Key {
				continue
			}
			c := found[col]
			if c == nil {
				c = &indexCandidate{col: col}
				found[col] = c
			}
			if n := len(c.queries); n == 0 || c.queries[n-1] != qi {
				c.queries = append(c.queries, qi)
			}
		}
	}
	var out []*indexCandidate
	for _, name := range cat.Order {
		for _, col := range cat.Tables[name].Columns {
			if c := found[col]; c != nil {
				out = append(out, c)
			}
		}
	}
	return out
}
