package core

// The search's ground truth. Algorithm 4.1 needs one GetPSchemaCost per
// candidate — map, translate, cost — and nothing else; every memo layer
// of the evaluator (cost cache, singleflight, slot reuse from the base
// configuration, plan sharing, the memoizing mapper) exists only to
// return the same answer faster. The references below are that plain
// algorithm, kept in test code so the product has one evaluation path
// and the tests have something independent to compare it against.

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"legodb/internal/imdb"
	"legodb/internal/optimizer"
	"legodb/internal/relational"
	"legodb/internal/sqlast"
	"legodb/internal/transform"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

// refEvaluate is the paper's GetPSchemaCost with no memo at all:
// re-map, re-translate and re-cost everything. It counts its
// translations in e, and reads nothing else of the evaluator but the
// workload, root count and cost model.
func (e *Evaluator) refEvaluate(ctx context.Context, ps *xschema.Schema) (Config, error) {
	if err := ctx.Err(); err != nil {
		return Config{}, err
	}
	cat, err := relational.MapWith(ps, relational.Options{RootCount: e.RootCount})
	if err != nil {
		return Config{}, err
	}
	opt := optimizer.New(cat)
	if e.Model != nil {
		opt.Model = *e.Model
	}
	queries := make([]*sqlast.Query, len(e.Workload.Entries))
	weights := make([]float64, len(e.Workload.Entries))
	for i, entry := range e.Workload.Entries {
		if err := ctx.Err(); err != nil {
			return Config{}, err
		}
		sq, err := xquery.Translate(entry.Query, ps, cat)
		if err != nil {
			return Config{}, err
		}
		queries[i] = sq
		weights[i] = entry.Weight
	}
	// Weighted average over queries and update operations together.
	total, wsum := 0.0, 0.0
	for i, q := range queries {
		est, err := opt.QueryCost(q)
		if err != nil {
			return Config{}, err
		}
		e.translations.Add(1)
		total += est.Cost * weights[i]
		wsum += weights[i]
	}
	for _, ue := range e.Workload.Updates {
		targets, err := xquery.ResolveUpdate(ue.Update, ps, cat)
		if err != nil {
			return Config{}, err
		}
		c, err := opt.UpdateCost(ue.Update, targets)
		if err != nil {
			return Config{}, err
		}
		e.translations.Add(1)
		total += c * ue.Weight
		wsum += ue.Weight
	}
	if wsum == 0 {
		return Config{}, fmt.Errorf("core: workload has zero total weight")
	}
	return Config{Schema: ps, Catalog: cat, Queries: queries, Cost: total / wsum}, nil
}

// refStart builds what both references start from: a memo-free
// evaluator (no cache) and the strategy's initial p-schema over the
// annotated IMDB schema, exactly as GreedySearch and BeamSearch build
// them.
func refStart(t testing.TB, wkld *xquery.Workload, opts Options) (*Evaluator, *xschema.Schema) {
	t.Helper()
	annotated := imdb.Schema().Clone()
	if err := xstats.Annotate(annotated, imdb.Stats()); err != nil {
		t.Fatal(err)
	}
	ps, err := InitialSchema(annotated, opts.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	rootCount := opts.RootCount
	if rootCount == 0 {
		rootCount = 1
	}
	return &Evaluator{Workload: wkld, RootCount: rootCount, Model: opts.Model}, ps
}

// refGreedy is Algorithm 4.1 over refEvaluate: every candidate of the
// strategy's move set pays one plain evaluation, failed candidates are
// skipped, and the first strictly cheapest candidate wins the
// iteration. The result carries what resultSignature reads, plus the
// translation count.
func refGreedy(t testing.TB, wkld *xquery.Workload, opts Options) *Result {
	t.Helper()
	ctx := context.Background()
	eval, ps := refStart(t, wkld, opts)
	best, err := eval.refEvaluate(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{InitialCost: best.Cost, Strategy: opts.Strategy}
	tropts := transform.Options{Kinds: opts.kinds(), WildcardLabels: opts.WildcardLabels}
	for iter := 0; opts.MaxIterations == 0 || iter < opts.MaxIterations; iter++ {
		cands := transform.Candidates(best.Schema, tropts)
		next, applied := best, ""
		for _, tr := range cands {
			cps, err := transform.Apply(best.Schema, tr)
			if err != nil {
				continue
			}
			cfg, err := eval.refEvaluate(ctx, cps)
			if err != nil {
				continue
			}
			if cfg.Cost < next.Cost {
				next, applied = cfg, tr.String()
			}
		}
		if applied == "" {
			break
		}
		improvement := (best.Cost - next.Cost) / best.Cost
		best = next
		res.Trace = append(res.Trace, Iteration{Cost: best.Cost, Applied: applied, Candidates: len(cands)})
		if opts.Threshold > 0 && improvement < opts.Threshold {
			break
		}
	}
	res.Best = best
	res.Translations = eval.Translations()
	return res
}

// refBeam is BeamSearch's level loop over refEvaluate: expand every
// beam configuration, drop schemas whose fingerprint was seen before,
// cost the rest, sort them stably by cost, keep the Width cheapest, and
// stop on convergence, the threshold, MaxLevels, or a level whose best
// is 1.5× worse than the best so far.
func refBeam(t testing.TB, wkld *xquery.Workload, opts BeamOptions) *Result {
	t.Helper()
	if opts.Width <= 0 {
		opts.Width = 3
	}
	if opts.MaxLevels <= 0 {
		opts.MaxLevels = 64
	}
	ctx := context.Background()
	eval, ps := refStart(t, wkld, opts.Options)
	initial, err := eval.refEvaluate(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{InitialCost: initial.Cost, Strategy: opts.Strategy}
	tropts := transform.Options{Kinds: opts.kinds(), WildcardLabels: opts.WildcardLabels}
	beam, best := []Config{initial}, initial
	seen := map[xschema.Fingerprint]bool{ps.Fingerprint(): true}
	for level := 0; level < opts.MaxLevels; level++ {
		var candidates []Config
		for _, cfg := range beam {
			for _, tr := range transform.Candidates(cfg.Schema, tropts) {
				next, err := transform.Apply(cfg.Schema, tr)
				if err != nil {
					continue
				}
				fp := next.Fingerprint()
				if seen[fp] {
					continue
				}
				seen[fp] = true
				c, err := eval.refEvaluate(ctx, next)
				if err != nil {
					continue
				}
				candidates = append(candidates, c)
			}
		}
		if len(candidates) == 0 {
			break
		}
		expansions := len(candidates)
		sort.SliceStable(candidates, func(i, j int) bool { return candidates[i].Cost < candidates[j].Cost })
		if len(candidates) > opts.Width {
			candidates = candidates[:opts.Width]
		}
		improved := candidates[0].Cost < best.Cost
		if improved {
			prev := best.Cost
			best = candidates[0]
			res.Trace = append(res.Trace, Iteration{
				Cost:       best.Cost,
				Applied:    fmt.Sprintf("beam level %d (%d expansions)", level+1, expansions),
				Candidates: expansions,
			})
			if opts.Threshold > 0 && (prev-best.Cost)/prev < opts.Threshold {
				break
			}
		}
		if !improved && candidates[0].Cost > best.Cost*1.5 {
			break
		}
		beam = candidates
	}
	res.Best = best
	res.Translations = eval.Translations()
	return res
}

// referenceWorkloads are the workloads the reference tests replay: a
// lookup workload, a publish workload, and a lookup workload with an
// insert.
func referenceWorkloads() []struct {
	name string
	make func() *xquery.Workload
} {
	return []struct {
		name string
		make func() *xquery.Workload
	}{
		{"lookup", imdb.LookupWorkload},
		{"publish", imdb.PublishWorkload},
		{"lookup+insert", func() *xquery.Workload {
			w := imdb.LookupWorkload()
			w.AddUpdate(xquery.MustParseUpdate("INSERT imdb/show"), 10)
			return w
		}},
	}
}

// referenceOptions gives greedy-full the paper's NYT wildcard label so
// its move set includes wildcard materialization.
func referenceOptions(strategy Strategy) Options {
	opts := Options{Strategy: strategy}
	if strategy == GreedyFull {
		opts.WildcardLabels = map[string]float64{"nyt": 0.25}
	}
	return opts
}

// checkAgainstReference runs the real search sequentially and with 8
// workers on fresh caches, then reruns the 8-worker search on the cache
// it warmed (every costing a hit, winners recovered by
// materialization), and requires each outcome to be want byte for byte.
func checkAgainstReference(t *testing.T, label, want string, run func(workers int, cache *CostCache) (*Result, error)) {
	t.Helper()
	warm := NewCostCache(0)
	for _, r := range []struct {
		name    string
		workers int
		cache   *CostCache
	}{
		{"workers1", 1, NewCostCache(0)},
		{"workers8", 8, warm},
		{"workers8-warm", 8, warm},
	} {
		res, err := run(r.workers, r.cache)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, r.name, err)
		}
		if got := resultSignature(res); got != want {
			t.Errorf("%s: %s diverged from the reference:\n--- reference\n%s\n--- %s\n%s",
				label, r.name, want, r.name, got)
		}
	}
}

// TestSearchMatchesReference is the differential acceptance test of the
// whole memo stack: for every strategy and workload, the real greedy
// search — sequential, parallel, and rerun on a warm cache — must
// produce byte for byte the traces, costs, chosen schema and DDL of
// plain Algorithm 4.1 (refGreedy). Evaluation counts and cache counters
// may differ; the outcome may not.
func TestSearchMatchesReference(t *testing.T) {
	for _, strategy := range []Strategy{GreedySO, GreedySI, GreedyFull} {
		for _, wl := range referenceWorkloads() {
			want := resultSignature(refGreedy(t, wl.make(), referenceOptions(strategy)))
			checkAgainstReference(t, fmt.Sprintf("%v/%s", strategy, wl.name), want, func(workers int, cache *CostCache) (*Result, error) {
				opts := referenceOptions(strategy)
				opts.Workers, opts.Cache = workers, cache
				return GreedySearch(context.Background(), imdb.Schema(), wl.make(), imdb.Stats(), opts)
			})
		}
	}
}

// TestBeamMatchesReference is TestSearchMatchesReference for the beam
// search at width 3 against refBeam.
func TestBeamMatchesReference(t *testing.T) {
	for _, wl := range referenceWorkloads() {
		want := resultSignature(refBeam(t, wl.make(), BeamOptions{Options: referenceOptions(GreedySO), Width: 3}))
		checkAgainstReference(t, "beam/"+wl.name, want, func(workers int, cache *CostCache) (*Result, error) {
			opts := referenceOptions(GreedySO)
			opts.Workers, opts.Cache = workers, cache
			return BeamSearch(context.Background(), imdb.Schema(), wl.make(), imdb.Stats(), BeamOptions{Options: opts, Width: 3})
		})
	}
}
