package experiments

import (
	"context"
	"fmt"

	"legodb/internal/core"
	"legodb/internal/imdb"
	"legodb/internal/xquery"
)

// AblationBeam compares the paper's greedy search (Algorithm 4.1) with
// the beam-search extension at several widths: final cost, levels, and
// the number of configurations evaluated. The paper's Section 7 suggests
// richer ("dynamic programming") search strategies; the question is
// whether greedy's single path leaves cost on the table.
func AblationBeam(ctx context.Context) (*Table, error) {
	t := &Table{
		Name:   "ablation-beam",
		Title:  "Greedy vs beam search (greedy-so starting point)",
		Header: []string{"workload", "search", "final cost", "vs greedy", "evaluations"},
		Notes:  "evaluations = configurations costed during the search",
	}
	for _, wl := range []struct {
		name string
		w    func() *xquery.Workload
	}{{"lookup", imdb.LookupWorkload}, {"publish", imdb.PublishWorkload}} {
		greedy, err := core.GreedySearch(ctx, imdb.Schema(), wl.w(), imdb.Stats(), searchOptions(core.GreedySO))
		if err != nil {
			return nil, err
		}
		gEvals := 0
		for _, it := range greedy.Trace {
			gEvals += it.Candidates
		}
		t.AddRow(wl.name, "greedy", f1(greedy.Best.Cost), "1.00", fmt.Sprintf("%d", gEvals))
		for _, width := range []int{2, 4} {
			beam, err := core.BeamSearch(ctx, imdb.Schema(), wl.w(), imdb.Stats(), core.BeamOptions{
				Options: searchOptions(core.GreedySO),
				Width:   width,
			})
			if err != nil {
				return nil, err
			}
			bEvals := 0
			for _, it := range beam.Trace {
				bEvals += it.Candidates
			}
			t.AddRow(wl.name, fmt.Sprintf("beam-%d", width),
				f1(beam.Best.Cost), f2(beam.Best.Cost/greedy.Best.Cost), fmt.Sprintf("%d", bEvals))
		}
	}
	return t, nil
}

// AblationUpdates demonstrates the update-workload extension (the
// paper's Section 7 future work): the same lookup workload is searched
// with increasing insert rates; as inserts dominate, the chosen
// configuration keeps fewer relations (fragmentation pays one seek and
// one index maintenance per relation per insert).
func AblationUpdates(ctx context.Context) (*Table, error) {
	t := &Table{
		Name:   "ablation-updates",
		Title:  "Effect of insert rate on the chosen configuration (lookup workload + INSERT imdb/show)",
		Header: []string{"insert weight", "final cost", "relations", "insert cost share"},
	}
	for _, weight := range []float64{0, 5, 20, 80} {
		w := imdb.LookupWorkload()
		if weight > 0 {
			w.AddUpdate(xquery.MustParseUpdate("INSERT imdb/show"), weight)
			w.AddUpdate(xquery.MustParseUpdate("INSERT imdb/actor"), weight)
		}
		res, err := core.GreedySearch(ctx, imdb.Schema(), w, imdb.Stats(), searchOptions(core.GreedySO))
		if err != nil {
			return nil, err
		}
		// Estimate the share of the weighted cost coming from updates by
		// re-costing the queries alone on the chosen schema.
		queriesOnly := imdb.LookupWorkload()
		qCost, err := core.GetPSchemaCostWith(res.Best.Schema, queriesOnly, 1, nil, sharedCache)
		if err != nil {
			return nil, err
		}
		totalW := w.TotalWeight()
		queryShare := qCost * queriesOnly.TotalWeight() / totalW
		share := 0.0
		if res.Best.Cost > 0 {
			share = 1 - queryShare/res.Best.Cost
		}
		t.AddRow(fmt.Sprintf("%.0f", weight), f1(res.Best.Cost),
			fmt.Sprintf("%d", len(res.Best.Schema.Names)), f2(share))
	}
	return t, nil
}
