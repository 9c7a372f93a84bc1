// Package core implements LegoDB's cost-based search for an efficient
// XML-to-relational storage mapping (Section 4.2, Algorithm 4.1): starting
// from an initial physical schema, it repeatedly applies the single
// schema transformation that lowers the estimated workload cost the most,
// using the relational optimizer as the cost oracle, until no
// transformation improves the configuration.
//
// The search is an anytime procedure, as the paper requires of a search
// over an in-principle unbounded transformation space: it honors
// context cancellation, a wall-clock deadline (Options.Deadline) and an
// evaluation budget (Options.Budget), and on any of them returns the
// best configuration found so far together with a SearchReport saying
// why it stopped. Candidate evaluations are fault-isolated: a panic or
// error in one candidate's pipeline is recorded as a CandidateError and
// the candidate skipped — it never aborts the search or wedges the
// worker pool.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"legodb/internal/optimizer"
	"legodb/internal/plan"
	"legodb/internal/relational"
	"legodb/internal/sqlast"
	"legodb/internal/transform"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

// Strategy selects the search's starting configuration and move set.
type Strategy int

const (
	// GreedySO starts with everything outlined and applies inlining
	// moves (the paper's greedy-so).
	GreedySO Strategy = iota
	// GreedySI starts with everything inlined (unions flattened to
	// options, as in the ALL-INLINED configuration) and applies
	// outlining moves (the paper's greedy-si).
	GreedySI
	// GreedyFull starts all-inlined with unions kept and considers the
	// full transformation repertoire. Not part of the paper's prototype
	// (which explored inlining/outlining in the greedy loop and the
	// other rewritings separately); provided as the natural extension.
	GreedyFull
)

func (s Strategy) String() string {
	switch s {
	case GreedySO:
		return "greedy-so"
	case GreedySI:
		return "greedy-si"
	case GreedyFull:
		return "greedy-full"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures the search.
type Options struct {
	Strategy Strategy
	// Kinds overrides the strategy's move set when non-nil.
	Kinds []transform.Kind
	// WildcardLabels feeds wildcard materialization candidates (label →
	// estimated fraction); only used when the move set includes it.
	WildcardLabels map[string]float64
	// Threshold stops the search early when the relative improvement of
	// an iteration falls below it (Section 5.2 suggests this
	// optimization); 0 disables.
	Threshold float64
	// MaxIterations bounds the loop (0 = unbounded).
	MaxIterations int
	// Deadline bounds the search's wall-clock time (0 = none). On
	// expiry the search stops dispatching candidates and returns the
	// best configuration found so far with Report.Stop = StopDeadline —
	// anytime semantics, not an error. A tighter deadline on the
	// caller's context wins.
	Deadline time.Duration
	// Budget bounds the number of candidate evaluations (cache hits
	// included; 0 = unbounded). Like Deadline, exhausting it is an
	// anytime stop (StopBudget), not an error.
	Budget int
	// RootCount is the number of stored documents (default 1).
	RootCount float64
	// Model overrides the optimizer cost model when non-nil.
	Model *optimizer.CostModel
	// Workers bounds the goroutines evaluating candidate configurations
	// per iteration (0 = GOMAXPROCS, 1 = sequential). The outcome is
	// deterministic regardless: ties break on candidate order.
	Workers int
	// Cache memoizes configuration costs across iterations. When nil, the
	// search creates a private cache (still deduplicating re-visited
	// configurations within the run); pass a shared cache to also reuse
	// costs across the greedy/beam strategy variants and repeated runs.
	Cache *CostCache
}

// searchCache resolves the cache the search should use.
func (o *Options) searchCache() *CostCache {
	if o.Cache != nil {
		return o.Cache
	}
	return NewCostCache(0)
}

// searchContext derives the search's context from the caller's: nil is
// promoted to Background, and Options.Deadline attaches a timeout.
func (o *Options) searchContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Deadline > 0 {
		return context.WithTimeout(ctx, o.Deadline)
	}
	return context.WithCancel(ctx)
}

func (o *Options) kinds() []transform.Kind {
	if o.Kinds != nil {
		return o.Kinds
	}
	switch o.Strategy {
	case GreedySO:
		return []transform.Kind{transform.KindInline}
	case GreedySI:
		return []transform.Kind{transform.KindOutline}
	default:
		return transform.AllKinds
	}
}

// Config is one evaluated storage configuration. A complete Config
// (Catalog non-nil) also records what each workload slot's translation
// read, so candidates derived from it reuse the slots their move did not
// reach (see incremental.go).
type Config struct {
	Schema  *xschema.Schema
	Catalog *relational.Catalog
	Queries []*sqlast.Query
	Cost    float64

	slots []slotRecord
}

// Iteration records one step of the greedy loop, for the Figure 10
// convergence plots.
type Iteration struct {
	Cost       float64
	Applied    string
	Candidates int
	Elapsed    time.Duration
	// CacheHits and CacheMisses count how many of this iteration's
	// candidate costings were answered from the cost cache versus paid a
	// full evaluator pipeline run. (With Workers > 1 two workers may race
	// to fill the same entry, so the split can vary slightly between
	// runs; costs and choices never do.)
	CacheHits   int
	CacheMisses int
}

// Result is the outcome of a search.
type Result struct {
	Best        Config
	InitialCost float64
	Trace       []Iteration
	Strategy    Strategy
	// Report says why the search stopped and what it skipped or
	// recovered from along the way.
	Report SearchReport
	// Cache is the cost-cache activity observed during this search (the
	// delta when the cache is shared with other searches).
	Cache CacheStats
	// Evals counts full evaluator pipeline runs (relational mapping +
	// translation + optimizer costing) performed by this search.
	Evals uint64
	// Translations counts per-slot translate+cost runs: one per
	// workload slot an evaluation could not reuse from its base.
	Translations uint64
	// QueryCacheHits counts the workload slots evaluations reused from
	// their base configuration, QueryCacheMisses the slots they
	// translated and costed afresh.
	QueryCacheHits   uint64
	QueryCacheMisses uint64
	// BlocksRequested counts the SPJ block costings translated queries
	// asked the logical-plan layer for during this search;
	// BlocksCosted counts the subset that ran the optimizer — the gap is
	// work absorbed by structural sharing across union branches, queries
	// and candidates.
	BlocksRequested uint64
	BlocksCosted    uint64
}

// Evaluator costs physical schemas against a fixed workload. It is the
// GetPSchemaCost of Algorithm 4.1.
type Evaluator struct {
	Workload  *xquery.Workload
	RootCount float64
	Model     *optimizer.CostModel
	// Cache, when non-nil, memoizes workload costs keyed by the schema's
	// canonical fingerprint (plus workload and cost-model digests).
	Cache *CostCache

	keyOnce    sync.Once
	workloadID uint64
	modelID    uint64
	evals      atomic.Uint64

	// Slot-reuse counters (see incremental.go): translations paid, and
	// slots reused from a base versus recomputed.
	translations   atomic.Uint64
	qhits, qmisses atomic.Uint64
	// Plan-layer counters (see incremental.go): block costings the plan
	// spaces were asked for, and the subset that missed every memo and
	// ran the optimizer.
	blocksReq    atomic.Uint64
	blocksCosted atomic.Uint64
	localBlocks  plan.Store
	mapperOnce   sync.Once
	mapper       *relational.Mapper
	// digPool recycles the per-evaluation shallow-digest map the mapper
	// reads.
	digPool sync.Pool
}

// Evals returns how many full (uncached) evaluations this evaluator ran.
func (e *Evaluator) Evals() uint64 { return e.evals.Load() }

// Translations returns how many per-slot translate+cost runs this
// evaluator paid (slots reused from a base skip them).
func (e *Evaluator) Translations() uint64 { return e.translations.Load() }

// QueryCacheStats returns how many workload slots this evaluator's
// evaluations reused from their base (hits) and recomputed (misses).
func (e *Evaluator) QueryCacheStats() (hits, misses uint64) {
	return e.qhits.Load(), e.qmisses.Load()
}

// BlockStats returns the logical-plan layer's traffic: block costings
// requested by translated queries, and the subset that actually ran the
// optimizer (the rest replayed a structurally identical block's memoized
// costing).
func (e *Evaluator) BlockStats() (requested, costed uint64) {
	return e.blocksReq.Load(), e.blocksCosted.Load()
}

// cacheKeyFor builds the cache key for an already-computed schema
// fingerprint, computing the workload and model digests once per
// evaluator. Callers that have the fingerprint in hand (the beam
// search's dedup set) use this to avoid fingerprinting twice.
func (e *Evaluator) cacheKeyFor(fp xschema.Fingerprint) CacheKey {
	e.keyOnce.Do(func() {
		e.workloadID = WorkloadID(e.Workload, e.RootCount)
		e.modelID = ModelID(e.Model)
	})
	return CacheKey{Schema: fp, Workload: e.workloadID, Model: e.modelID}
}

// cacheKey builds the cache key for a p-schema.
func (e *Evaluator) cacheKey(ps *xschema.Schema) CacheKey {
	return e.cacheKeyFor(ps.Fingerprint())
}

// Evaluate maps the p-schema to relations, translates the workload and
// returns the weighted-average estimated cost together with the complete
// derived configuration. The evaluator's mapper reuses unchanged tables
// from its earlier evaluations, and block costings
// come through plan.Store; with no base configuration every workload
// slot is translated and costed. Cancelling ctx aborts between pipeline
// stages.
func (e *Evaluator) Evaluate(ctx context.Context, ps *xschema.Schema) (Config, error) {
	return e.evaluate(ctx, ps, nil)
}

// EvaluateCached costs a p-schema through the evaluator's cache. On a
// hit the returned Config carries only the schema and its cost (Catalog
// and Queries are nil — derive them with Evaluate when the configuration
// is actually chosen); on a miss it runs the full pipeline, memoizes the
// cost, and returns the complete configuration. The boolean reports a
// hit. With a nil cache it degenerates to Evaluate.
//
// Misses are deduplicated singleflight-style across every evaluator
// sharing the cache (the search's own worker pool, sibling searches,
// and — through a CacheRegistry — other engines' searches): the first
// evaluator to arrive at a key runs the pipeline while later arrivals
// block on its outcome and adopt the cost (counted as a dedup, returned
// as a hit). Costs are a pure function of the key, so the adopted value
// is bit-identical to what the waiter would have computed. A waiter
// whose own context is cancelled stops waiting; a leader that fails
// releases its waiters to evaluate independently (the leader's error may
// be private to its context, e.g. a cancelled sibling search).
func (e *Evaluator) EvaluateCached(ctx context.Context, ps *xschema.Schema) (Config, bool, error) {
	if e.Cache == nil {
		cfg, err := e.Evaluate(ctx, ps)
		return cfg, false, err
	}
	return e.evaluateCachedKey(ctx, ps, e.cacheKey(ps), nil)
}

// evaluateCachedKey is EvaluateCached under an already-built cache key,
// evaluating a miss from base (see evaluate).
func (e *Evaluator) evaluateCachedKey(ctx context.Context, ps *xschema.Schema, key CacheKey, base *Config) (Config, bool, error) {
	if cost, ok := e.Cache.Get(key); ok {
		return Config{Schema: ps, Cost: cost}, true, nil
	}
	call, leader := e.Cache.join(key)
	if !leader {
		select {
		case <-call.done:
			if call.err == nil {
				e.Cache.countDedup()
				return Config{Schema: ps, Cost: call.cost}, true, nil
			}
		case <-ctx.Done():
			return Config{}, false, ctx.Err()
		}
		// The leader failed; evaluate independently under our context.
		cfg, err := e.evaluate(ctx, ps, base)
		if err != nil {
			return Config{}, false, err
		}
		e.Cache.Put(key, cfg.Cost)
		return cfg, false, nil
	}
	cfg, err := e.evaluateAsLeader(ctx, ps, key, call, base)
	if err != nil {
		return Config{}, false, err
	}
	return cfg, false, nil
}

// evaluateAsLeader runs the pipeline for a key this evaluator owns the
// flight for, publishing the outcome (cost or error) to any waiters. The
// deferred finish also fires when the evaluation panics — the search's
// per-candidate isolation recovers the panic above us, and the waiters
// must be released to evaluate for themselves rather than block forever.
func (e *Evaluator) evaluateAsLeader(ctx context.Context, ps *xschema.Schema, key CacheKey, call *flightCall, base *Config) (cfg Config, err error) {
	published := false
	defer func() {
		if !published {
			e.Cache.finish(key, call, 0, errLeaderAbandoned)
		}
	}()
	cfg, err = e.evaluate(ctx, ps, base)
	if err == nil {
		e.Cache.Put(key, cfg.Cost)
	}
	e.Cache.finish(key, call, cfg.Cost, err)
	published = true
	return cfg, err
}

// errLeaderAbandoned is published to singleflight waiters when their
// leader's evaluation panicked out of the pipeline.
var errLeaderAbandoned = errors.New("core: in-flight evaluation abandoned")

// Materialize completes a configuration whose catalog and translated
// queries were skipped by a cost-cache hit by evaluating its schema. A
// complete configuration is returned as is.
func (e *Evaluator) Materialize(ctx context.Context, cfg Config) (Config, error) {
	return e.materialize(ctx, cfg, nil)
}

// materialize is Materialize evaluating from base (see evaluate).
func (e *Evaluator) materialize(ctx context.Context, cfg Config, base *Config) (Config, error) {
	if cfg.Catalog != nil {
		return cfg, nil
	}
	return e.evaluate(ctx, cfg.Schema, base)
}

// GetPSchemaCost returns just the estimated workload cost of a p-schema.
func GetPSchemaCost(ps *xschema.Schema, wkld *xquery.Workload, rootCount float64) (float64, error) {
	return GetPSchemaCostWith(ps, wkld, rootCount, nil, nil)
}

// GetPSchemaCostWith is GetPSchemaCost with an explicit cost model
// (nil = default) and cost cache (nil = uncached).
func GetPSchemaCostWith(ps *xschema.Schema, wkld *xquery.Workload, rootCount float64, model *optimizer.CostModel, cache *CostCache) (float64, error) {
	e := &Evaluator{Workload: wkld, RootCount: rootCount, Model: model, Cache: cache}
	cfg, _, err := e.EvaluateCached(context.Background(), ps)
	if err != nil {
		return 0, err
	}
	return cfg.Cost, nil
}

// InitialSchema builds the starting p-schema for a strategy from an
// annotated schema.
func InitialSchema(s *xschema.Schema, strategy Strategy) (*xschema.Schema, error) {
	switch strategy {
	case GreedySO:
		return pschemaInitialOutlined(s)
	case GreedySI:
		return pschemaAllInlined(s)
	default:
		return pschemaInitialInlined(s)
	}
}

// GreedySearch runs Algorithm 4.1: annotate the schema with statistics,
// build the strategy's initial physical schema, then iteratively apply
// the single cheapest transformation until no candidate improves the
// cost (or the threshold / iteration bound / deadline / budget fires,
// or ctx is cancelled — the anytime stops, which return the best
// configuration found so far rather than an error). A nil ctx is
// treated as context.Background().
func GreedySearch(ctx context.Context, schema *xschema.Schema, wkld *xquery.Workload, stats *xstats.Set, opts Options) (*Result, error) {
	if len(wkld.Entries) == 0 && len(wkld.Updates) == 0 {
		return nil, fmt.Errorf("core: empty workload")
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
	// The initial configuration is evaluated before anytime semantics
	// kick in: without it there is no best-so-far to return. (A context
	// cancelled this early is a genuine error.)
	best, _, err := eval.EvaluateCached(ctx, ps)
	if err != nil {
		return nil, fmt.Errorf("core: evaluate initial schema: %w", err)
	}
	st := newSearchState(ctx, opts.Budget)
	result := &Result{InitialCost: best.Cost, Strategy: opts.Strategy}
	tropts := transform.Options{Kinds: opts.kinds(), WildcardLabels: opts.WildcardLabels}

	stop := StopConverged
	for iter := 0; ; iter++ {
		if opts.MaxIterations > 0 && iter >= opts.MaxIterations {
			stop = StopMaxIterations
			break
		}
		if err := ctx.Err(); err != nil {
			stop = st.stopFor(err)
			break
		}
		if st.exhausted() {
			stop = StopBudget
			break
		}
		start := time.Now()
		cands := transform.Candidates(best.Schema, tropts)
		results, hits, misses := evaluateCandidates(st, &best, cands, eval, opts.Workers)
		// Adopt the cheapest improving candidate (ties break on candidate
		// order). A cost-cache hit carries no catalog, so a winning hit is
		// derived now from the current best — one pipeline run instead of
		// one per candidate. A winner whose materialization fails is
		// dropped for the next-cheapest; an interrupted one keeps the previous best (its
		// catalog is already derived or re-derivable) — anytime semantics
		// over a half-applied winner.
		var bestCand Config
		applied := ""
		for {
			pick := -1
			for i, cfg := range results {
				if cfg != nil && cfg.Cost < best.Cost && (pick < 0 || cfg.Cost < results[pick].Cost) {
					pick = i
				}
			}
			if pick < 0 {
				break
			}
			if cfg, ok := materializeCandidate(st, eval, cands[pick].String(), *results[pick], &best); ok {
				bestCand, applied = cfg, cands[pick].String()
				break
			}
			if ctx.Err() != nil {
				break
			}
			results[pick] = nil
		}
		if applied == "" {
			// No improving candidate. If the iteration was cut short the
			// move space was not exhausted — report the interruption, not
			// convergence.
			switch {
			case ctx.Err() != nil:
				stop = st.stopFor(ctx.Err())
			case st.exhausted():
				stop = StopBudget
			}
			break
		}
		improvement := (best.Cost - bestCand.Cost) / best.Cost
		best = bestCand
		result.Trace = append(result.Trace, Iteration{
			Cost:        best.Cost,
			Applied:     applied,
			Candidates:  len(cands),
			Elapsed:     time.Since(start),
			CacheHits:   hits,
			CacheMisses: misses,
		})
		if opts.Threshold > 0 && improvement < opts.Threshold {
			stop = StopThreshold
			break
		}
	}
	// The best configuration's catalog may still be missing when the
	// initial evaluation hit the cache and no iteration improved on it.
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

// materializeCandidate derives an improving candidate's catalog from
// base under the same fault isolation as evaluateOne: an error or panic
// is recorded as a CandidateError at stage "materialize" and reported as
// !ok, and the caller moves on to the next-cheapest candidate. An
// interrupted materialization is a skip, not a failure.
func materializeCandidate(st *searchState, eval *Evaluator, label string, cfg Config, base *Config) (out Config, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			st.recordPanic(label, "materialize", r, debug.Stack())
			out, ok = Config{}, false
		}
	}()
	out, err := eval.materialize(st.ctx, cfg, base)
	if err != nil {
		if st.ctx.Err() == nil {
			st.recordError(label, "materialize", err)
		}
		return Config{}, false
	}
	return out, true
}

// materializeBest derives the returned configuration's catalog, detached
// from the search context: an expired deadline must not cost the caller
// the configuration the search already earned. There is nothing cheaper
// to fall back on, so a failure — a recovered panic included — is the
// search's error.
func materializeBest(eval *Evaluator, best Config) (cfg Config, err error) {
	defer func() {
		if r := recover(); r != nil {
			cfg, err = Config{}, fmt.Errorf("core: materialize best: panic: %v", r)
		}
	}()
	if cfg, err = eval.Materialize(context.Background(), best); err != nil {
		return Config{}, fmt.Errorf("core: materialize best: %w", err)
	}
	return cfg, nil
}

// evaluateCandidates applies and costs every candidate transformation of
// base's schema, fanning out across workers; each candidate is evaluated
// from base. The result slice is indexed
// like cands; inapplicable or unanswerable candidates are nil (skipped,
// as the paper's engine does, with failures recorded in the search
// state). It also reports how many costings were cache hits and misses.
// Cancellation stops the dispatch loop; workers always drain and the
// WaitGroup always settles, even when a candidate's evaluation panics.
func evaluateCandidates(st *searchState, base *Config, cands []transform.Transformation, eval *Evaluator, workers int) ([]*Config, int, int) {
	results := make([]*Config, len(cands))
	var hits, misses atomic.Int64
	if workers == 1 || len(cands) <= 1 {
		for i := range cands {
			results[i] = evaluateOne(st, base, cands[i], eval, &hits, &misses)
		}
		return results, int(hits.Load()), int(misses.Load())
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	// Prefill a buffered channel and close it: workers pull indices with
	// no dispatcher goroutine in the loop. The old unbuffered dispatch
	// serialized the pool on a rendezvous per candidate, which the
	// worker-scaling benchmark exposed as a flat spot at high worker
	// counts. Cancellation is handled by st.take() inside evaluateOne —
	// every candidate pulled after the context dies is counted skipped,
	// preserving the report's accounting.
	var wg sync.WaitGroup
	next := make(chan int, len(cands))
	for i := range cands {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = evaluateOne(st, base, cands[i], eval, &hits, &misses)
			}
		}()
	}
	wg.Wait()
	return results, int(hits.Load()), int(misses.Load())
}

// evaluateOne applies and costs a single candidate. Every failure mode
// — transformation error, evaluation error, worker panic — converts to a nil result plus a CandidateError in the search
// state; nothing escapes to the worker goroutine.
func evaluateOne(st *searchState, base *Config, tr transform.Transformation, eval *Evaluator, hits, misses *atomic.Int64) (out *Config) {
	if !st.take() {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			st.recordPanic(tr.String(), "evaluate", r, debug.Stack())
			out = nil
		}
	}()
	nextSchema, err := transform.Apply(base.Schema, tr)
	if err != nil {
		st.recordError(tr.String(), "apply", err)
		return nil
	}
	cfg, hit, err := eval.evaluateCachedKey(st.ctx, nextSchema, eval.cacheKey(nextSchema), base)
	if err != nil {
		// A cancellation mid-evaluation is a skip, not a failure.
		if st.ctx.Err() == nil {
			st.recordError(tr.String(), "evaluate", err)
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
