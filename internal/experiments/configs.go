package experiments

import (
	"context"
	"fmt"

	"legodb/internal/core"
	"legodb/internal/imdb"
	"legodb/internal/plan"
	"legodb/internal/pschema"
	"legodb/internal/transform"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

// sharedCache memoizes configuration costs across every experiment run
// in this process: the fig10/fig11 sweeps and the ablations re-search
// overlapping configuration spaces (the same workloads, the same
// greedy/beam trajectories), so later runs answer most costings from the
// cache instead of re-running the evaluator pipeline. Keys include the
// workload and cost-model digests, so experiments with different
// workloads never collide.
var sharedCache = core.NewCostCache(1 << 16)

// cacheRegistry, when enabled, backs the package's shared cache with a
// cross-engine CacheRegistry: every experiment attaches as one fleet
// engine, so the run exercises (and reports through) the same surface a
// multi-tenant service uses. Off (the default), experiments share the
// process-private sharedCache directly; costs and outputs are identical
// either way.
var cacheRegistry *core.CacheRegistry

// EnableRegistry routes all experiment costings through a cross-engine
// cache registry (cmd/experiments -registry).
func EnableRegistry(on bool) {
	if !on {
		cacheRegistry = nil
		return
	}
	cacheRegistry = core.NewCacheRegistry(1 << 16)
	sharedCache = cacheRegistry.Attach()
}

// RegistryEnabled reports whether a registry backs the shared cache.
func RegistryEnabled() bool { return cacheRegistry != nil }

// RegistryStats snapshots the fleet-wide registry counters (the zero
// value when -registry is off).
func RegistryStats() core.RegistryStats { return cacheRegistry.Stats() }

// AttachEngine registers one more fleet engine with the registry — each
// experiment run counts as a tenant in the fleet view. A no-op without
// -registry.
func AttachEngine() {
	if cacheRegistry != nil {
		cacheRegistry.Attach()
	}
}

// CacheStats snapshots the shared cache's hit/miss/eviction counters.
func CacheStats() core.CacheStats { return sharedCache.Stats() }

// MaxIterations, when positive, bounds every search's greedy loop /
// beam levels — used by CI smoke runs to keep wall-clock short.
var MaxIterations int

// workerBound bounds the candidate-evaluation worker pool of every
// search (0 = GOMAXPROCS, 1 = sequential). Results are byte-identical
// at any bound — the worker-sweep determinism test in internal/core
// pins that — so the knob only trades wall clock for concurrency.
var workerBound int

// SetWorkers sets the per-search worker-pool bound
// (cmd/experiments -workers).
func SetWorkers(n int) { workerBound = n }

// PlanStats snapshots the shared block-costing memo's counters.
func PlanStats() plan.StoreStats { return sharedCache.BlockStats() }

// LoadCacheFile merges a cost-cache snapshot file into the shared
// cache, returning the number of entries added. A missing file is not
// an error (first run warms the cache that later runs load), and a
// corrupt file is quarantined to path+".corrupt" and reported in the
// returned warning — the runs continue with a cold cache.
func LoadCacheFile(path string) (n int, warning string, err error) {
	return sharedCache.LoadSnapshotFile(path)
}

// SaveCacheFile writes the shared cache's contents to a snapshot file
// (atomically, via a sibling temp file).
func SaveCacheFile(path string) error {
	return sharedCache.SaveSnapshotFile(path)
}

// searchOptions builds the core search options every experiment uses:
// the requested strategy plus the package-wide cache and iteration
// budget.
func searchOptions(strategy core.Strategy) core.Options {
	return core.Options{Strategy: strategy, MaxIterations: MaxIterations,
		Workers: workerBound, Cache: sharedCache}
}

// annotatedIMDB returns the IMDB schema annotated with (optionally
// rescaled) statistics.
func annotatedIMDB(adjust func(*xstats.Set)) (*xschema.Schema, error) {
	s := imdb.Schema()
	stats := imdb.Stats()
	if adjust != nil {
		adjust(stats)
	}
	if err := xstats.Annotate(s, stats); err != nil {
		return nil, err
	}
	return s, nil
}

// storageMap1 is Figure 4(a): everything inlined, unions flattened to
// nullable columns.
func storageMap1(annotated *xschema.Schema) (*xschema.Schema, error) {
	return pschema.AllInlined(annotated)
}

// storageMap2 is Figure 4(b): map 1 with the review wildcard partitioned
// into NYT reviews and the rest.
func storageMap2(annotated *xschema.Schema, nytFraction float64) (*xschema.Schema, error) {
	m1, err := storageMap1(annotated)
	if err != nil {
		return nil, err
	}
	cands := transform.Candidates(m1, transform.Options{
		Kinds:          []transform.Kind{transform.KindWildcardMaterialize},
		WildcardLabels: map[string]float64{"nyt": nytFraction},
	})
	for _, tr := range cands {
		if tr.Loc.Type == "Reviews" {
			return transform.Apply(m1, tr)
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("no wildcard to materialize in map 1")
	}
	return transform.Apply(m1, cands[0])
}

// storageMap3 is Figure 4(c): unions kept and distributed over show, the
// partition references inlined.
func storageMap3(annotated *xschema.Schema) (*xschema.Schema, error) {
	base, err := pschema.InitialInlined(annotated, pschema.InlineOptions{})
	if err != nil {
		return nil, err
	}
	cands := transform.Candidates(base, transform.Options{
		Kinds: []transform.Kind{transform.KindUnionDistribute},
	})
	if len(cands) == 0 {
		return nil, fmt.Errorf("no union to distribute")
	}
	out, err := transform.Apply(base, cands[0])
	if err != nil {
		return nil, err
	}
	// Inline the Movie/TV branch references inside the partitions.
	for guard := 0; guard < 100; guard++ {
		inl := transform.Candidates(out, transform.Options{Kinds: []transform.Kind{transform.KindInline}})
		if len(inl) == 0 {
			break
		}
		out, err = transform.Apply(out, inl[0])
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// costOn evaluates a single query's estimated cost on a configuration.
func costOn(ps *xschema.Schema, q *xquery.Query) (float64, error) {
	w := &xquery.Workload{}
	w.Add(q, 1)
	return workloadCostOn(ps, w)
}

// workloadCostOn evaluates a workload's weighted cost on a configuration
// through the package-wide cache.
func workloadCostOn(ps *xschema.Schema, w *xquery.Workload) (float64, error) {
	e := &core.Evaluator{Workload: w, RootCount: 1, Cache: sharedCache}
	cfg, _, err := e.EvaluateCached(context.Background(), ps)
	if err != nil {
		return 0, err
	}
	return cfg.Cost, nil
}
