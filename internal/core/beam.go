package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"legodb/internal/transform"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

// Beam search — the paper's Section 7 lists "considering dynamic
// programming search strategies" as future work; this implements a beam
// variant: instead of committing to the single cheapest transformation
// per level (Algorithm 4.1), the search keeps the Width cheapest distinct
// configurations and expands them all, escaping local minima the greedy
// loop can fall into.
//
// Distinctness is decided by xschema.Fingerprint — the canonical
// structural hash also used as the cost-cache key — so configurations
// reached along different transformation paths are expanded (and costed)
// once.

// BeamOptions configures BeamSearch. Width 1 degenerates to the greedy
// algorithm.
type BeamOptions struct {
	Options
	// Width is the number of configurations kept per level (default 3).
	Width int
	// MaxLevels bounds the number of expansion levels (default 64).
	MaxLevels int
}

// BeamSearch explores the transformation space keeping the Width best
// configurations per level. The result's trace records the best cost at
// each level. Candidate configurations of one level are evaluated by the
// same Workers-bounded pool as the greedy search, with deterministic
// outcome (level candidates sort stably by cost in generation order).
// Like GreedySearch it is an anytime procedure: cancellation, the
// deadline and the evaluation budget stop it with the best
// configuration found so far and a SearchReport, not an error.
func BeamSearch(ctx context.Context, schema *xschema.Schema, wkld *xquery.Workload, stats *xstats.Set, opts BeamOptions) (*Result, error) {
	if len(wkld.Entries) == 0 && len(wkld.Updates) == 0 {
		return nil, fmt.Errorf("core: empty workload")
	}
	if opts.Width <= 0 {
		opts.Width = 3
	}
	if opts.MaxLevels <= 0 {
		opts.MaxLevels = 64
	}
	ctx, cancel := opts.searchContext(ctx)
	defer cancel()
	started := time.Now()
	annotated := schema.Clone()
	if stats != nil {
		if err := xstats.Annotate(annotated, stats); err != nil {
			return nil, fmt.Errorf("core: annotate: %w", err)
		}
	}
	ps, err := InitialSchema(annotated, opts.Strategy)
	if err != nil {
		return nil, fmt.Errorf("core: initial schema: %w", err)
	}
	rootCount := opts.RootCount
	if rootCount == 0 {
		rootCount = 1
	}
	cache := opts.searchCache()
	eval := &Evaluator{Workload: wkld, RootCount: rootCount, Model: opts.Model, Cache: cache}
	cacheStart := cache.Stats()
	initial, _, err := eval.EvaluateCached(ctx, ps)
	if err != nil {
		return nil, fmt.Errorf("core: evaluate initial schema: %w", err)
	}
	st := newSearchState(ctx, opts.Budget)
	result := &Result{InitialCost: initial.Cost, Strategy: opts.Strategy}
	tropts := transform.Options{Kinds: opts.kinds(), WildcardLabels: opts.WildcardLabels}

	beam := []Config{initial}
	best := initial
	seen := map[xschema.Fingerprint]bool{ps.Fingerprint(): true}

	stop := StopMaxLevels
	for level := 0; level < opts.MaxLevels; level++ {
		if err := ctx.Err(); err != nil {
			stop = st.stopFor(err)
			break
		}
		if st.exhausted() {
			stop = StopBudget
			break
		}
		start := time.Now()
		// Expand the beam: apply every transformation, deduplicate by
		// canonical fingerprint, then cost the distinct schemas in
		// parallel, each from the beam member it expands. A panicking
		// transformation skips that expansion only.
		var next []expansion
		for bi := range beam {
			parent := &beam[bi]
			for _, tr := range transform.Candidates(parent.Schema, tropts) {
				if ps := expandOne(st, parent.Schema, tr); ps != nil {
					fp := ps.Fingerprint()
					if seen[fp] {
						continue
					}
					seen[fp] = true
					next = append(next, expansion{ps, fp, parent})
				}
			}
		}
		results, hits, misses := evaluateSchemas(st, next, eval, opts.Workers)
		var candidates []Config
		for _, cfg := range results {
			if cfg != nil {
				candidates = append(candidates, *cfg)
			}
		}
		if len(candidates) == 0 {
			switch {
			case ctx.Err() != nil:
				stop = st.stopFor(ctx.Err())
			case st.exhausted():
				stop = StopBudget
			default:
				stop = StopConverged
			}
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
			result.Trace = append(result.Trace, Iteration{
				Cost:        best.Cost,
				Applied:     fmt.Sprintf("beam level %d (%d expansions)", level+1, expansions),
				Candidates:  expansions,
				Elapsed:     time.Since(start),
				CacheHits:   hits,
				CacheMisses: misses,
			})
			if opts.Threshold > 0 && (prev-best.Cost)/prev < opts.Threshold {
				stop = StopThreshold
				break
			}
		}
		// Continue expanding even on a non-improving level (the beam may
		// climb out of a plateau), but stop once the whole level is worse
		// than the best by a wide margin.
		if !improved && candidates[0].Cost > best.Cost*1.5 {
			stop = StopConverged
			break
		}
		beam = candidates
	}
	// Cache hits carry only schema and cost; derive the winning catalog.
	result.Best, err = materializeBest(eval, best)
	if err != nil {
		return nil, err
	}
	result.Report = st.report(stop, len(result.Trace), eval, time.Since(started))
	result.Cache = cache.Stats().Sub(cacheStart)
	result.Report.Cache = result.Cache
	result.Evals = eval.Evals()
	result.Translations = eval.Translations()
	result.QueryCacheHits, result.QueryCacheMisses = eval.QueryCacheStats()
	result.BlocksRequested, result.BlocksCosted = eval.BlockStats()
	return result, nil
}

// expandOne applies a single beam expansion with the same fault
// isolation as candidate evaluation: errors and panics convert to a
// recorded CandidateError and a skipped expansion.
func expandOne(st *searchState, base *xschema.Schema, tr transform.Transformation) (out *xschema.Schema) {
	defer func() {
		if r := recover(); r != nil {
			st.recordPanic(tr.String(), "apply", r, debug.Stack())
			out = nil
		}
	}()
	next, err := transform.Apply(base, tr)
	if err != nil {
		st.recordError(tr.String(), "apply", err)
		return nil
	}
	return next
}

// expansion is one applied beam expansion: its schema, the fingerprint
// the dedup pass computed (so the cache-key path need not fingerprint
// again), and the beam member it expands.
type expansion struct {
	schema *xschema.Schema
	fp     xschema.Fingerprint
	parent *Config
}

// evaluateSchemas costs a batch of beam expansions, fanning out across
// workers like evaluateCandidates. Unanswerable schemas are nil in the
// indexed result slice; a panicking evaluation is recorded and skipped
// without wedging the pool.
func evaluateSchemas(st *searchState, schemas []expansion, eval *Evaluator, workers int) ([]*Config, int, int) {
	results := make([]*Config, len(schemas))
	var hits, misses atomic.Int64
	evalAt := func(i int) {
		results[i] = evaluateSchema(st, schemas[i], eval, &hits, &misses)
	}
	if workers == 1 || len(schemas) <= 1 {
		for i := range schemas {
			evalAt(i)
		}
		return results, int(hits.Load()), int(misses.Load())
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(schemas) {
		workers = len(schemas)
	}
	// Prefilled buffered channel, no dispatcher goroutine (see
	// evaluateCandidates): cancellation is handled by st.take() per
	// pulled schema, keeping the skip accounting intact.
	var wg sync.WaitGroup
	next := make(chan int, len(schemas))
	for i := range schemas {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				evalAt(i)
			}
		}()
	}
	wg.Wait()
	return results, int(hits.Load()), int(misses.Load())
}

// evaluateSchema costs one beam expansion from its parent under the
// search state's budget and panic isolation.
func evaluateSchema(st *searchState, x expansion, eval *Evaluator, hits, misses *atomic.Int64) (out *Config) {
	if !st.take() {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			st.recordPanic("beam expansion", "evaluate", r, debug.Stack())
			out = nil
		}
	}()
	cfg, hit, err := eval.evaluateCachedKey(st.ctx, x.schema, eval.cacheKeyFor(x.fp), x.parent)
	if err != nil {
		if st.ctx.Err() == nil {
			st.recordError("beam expansion", "evaluate", err)
		}
		return nil
	}
	if hit {
		hits.Add(1)
	} else {
		misses.Add(1)
	}
	return &cfg
}
