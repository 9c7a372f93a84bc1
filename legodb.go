// Package legodb is a cost-based XML-to-relational storage mapping
// engine, reproducing "From XML Schema to Relations: A Cost-Based
// Approach to XML Storage" (Bohannon, Freire, Roy, Siméon; ICDE 2002).
//
// Given an XML Schema (in XML Query Algebra notation), data statistics
// and an XQuery workload, LegoDB searches a space of schema rewritings —
// inlining/outlining, union distribution, repetition splitting, wildcard
// materialization — mapping each rewritten physical schema to a
// relational configuration and costing the translated workload with a
// relational optimizer. The cheapest configuration found can then be
// instantiated as an in-memory relational store that shreds documents,
// answers the XQuery workload, and publishes documents back.
//
//	eng, _ := legodb.New(schemaText)
//	eng.SetStatisticsText(statsText)
//	eng.AddQuery("Q1", `FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/year`, 1)
//	advice, _ := eng.Advise(legodb.AdviseOptions{})
//	fmt.Println(advice.DDL())
//	store, _ := advice.Open()
//	store.Load(doc)
//	rows, _ := store.Query(`FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/year`,
//	    legodb.Params{"c1": "Fugitive, The"})
package legodb

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"legodb/internal/core"
	"legodb/internal/dtd"
	"legodb/internal/optimizer"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/transform"
	"legodb/internal/xmltree"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xsd"
	"legodb/internal/xstats"
)

// Engine holds an application description: schema, statistics and
// workload, plus a cost cache shared by every Advise call on the engine
// (so re-advising after a workload tweak, or comparing greedy and beam
// strategies, reuses the costs of configurations already seen; keys
// include workload and statistics digests, so stale hits are
// impossible).
//
// An Engine is safe for concurrent use: setters (SetStatisticsText,
// CollectStatistics, AddQuery, AddUpdate) and searches (Advise,
// AdviseContext, EvaluateFixed) may run from multiple goroutines. Each
// search snapshots the engine's description when it starts, so a setter
// racing a search never corrupts it — the search simply answers for the
// description it observed, and the next search sees the update.
type Engine struct {
	mu       sync.Mutex
	schema   *xschema.Schema
	stats    *xstats.Set
	workload *xquery.Workload
	cache    *core.CostCache
	registry *Registry
	totals   core.CacheStats // cumulative across this engine's searches
}

func engineFor(s *xschema.Schema) *Engine {
	return &Engine{schema: s, workload: &xquery.Workload{}, cache: core.NewCostCache(0)}
}

// Options configures engine construction beyond the schema text.
type Options struct {
	// Registry attaches the engine to a cross-engine cost-cache registry
	// shared by a fleet of engines; nil keeps an engine-private cache.
	Registry *Registry
}

// NewWithOptions is New with construction options (most notably
// Options.Registry for fleet-shared cost caching).
func NewWithOptions(schemaText string, opts Options) (*Engine, error) {
	e, err := New(schemaText)
	if err != nil {
		return nil, err
	}
	e.attach(opts.Registry)
	return e, nil
}

func (e *Engine) attach(r *Registry) {
	if r == nil {
		return
	}
	e.registry = r
	e.cache = r.reg.Attach()
}

// New parses an XML Schema in algebra notation and returns an engine for
// it.
func New(schemaText string) (*Engine, error) {
	s, err := xschema.ParseSchema(schemaText)
	if err != nil {
		return nil, err
	}
	return engineFor(s), nil
}

// NewFromDTD imports a Document Type Definition instead of an XML
// Schema. DTDs carry no data types, so every value is stored as a
// string — the storage-efficiency gap the paper's Section 3.1 points
// out; supplying statistics is especially important here.
func NewFromDTD(dtdText string) (*Engine, error) {
	s, err := dtd.Parse(dtdText)
	if err != nil {
		return nil, err
	}
	return engineFor(s), nil
}

// NewFromXSD imports a W3C XML Schema document (the notation of the
// paper's Appendix B), covering the subset the paper's schemas use:
// global elements and complex types, sequences/choices with occurrence
// bounds, attributes, xs:string/xs:integer simple types and xs:any
// wildcards.
func NewFromXSD(xsdText string) (*Engine, error) {
	s, err := xsd.Parse(xsdText)
	if err != nil {
		return nil, err
	}
	return engineFor(s), nil
}

// Registry shares one cost-cache family across a fleet of engines. A
// multi-tenant service holds one engine per tenant schema; near-identical
// tenants search overlapping configuration spaces, and without sharing
// each engine re-pays every costing the fleet has already performed.
// Engines attached via NewWithOptions (or created by Registry.Engine)
// evaluate through a single shared cache keyed by (schema fingerprint,
// workload digest, cost-model digest), so identical candidates hit across
// tenants and entries can never be confused between tenants that differ.
//
// A Registry is safe for concurrent use by any number of engines.
// Concurrent evaluations of the same key are deduplicated: one engine
// runs the pipeline, the others wait and adopt its cost
// (CacheStats.Dedups counts the adoptions). The capacity passed to
// NewRegistry is a global budget across the fleet with deterministic
// oldest-first eviction per shard.
type Registry struct {
	reg *core.CacheRegistry
}

// RegistryOptions tunes NewRegistry; the zero value uses the default
// capacity (64k entries).
type RegistryOptions struct {
	// Capacity bounds the shared cache to roughly this many entries
	// across all attached engines (0 = default 64k).
	Capacity int
}

// NewRegistry returns an empty registry for a fleet of engines.
func NewRegistry(opts ...RegistryOptions) *Registry {
	var o RegistryOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return &Registry{reg: core.NewCacheRegistry(o.Capacity)}
}

// Engine parses an XML Schema and returns an engine attached to the
// registry — shorthand for NewWithOptions(schemaText, Options{Registry: r}).
func (r *Registry) Engine(schemaText string) (*Engine, error) {
	return NewWithOptions(schemaText, Options{Registry: r})
}

// RegistryStats re-exports the fleet-wide registry counters: the number
// of attached engines plus the aggregated hit/miss/dedup/eviction
// counters of the shared cache.
type RegistryStats = core.RegistryStats

// Stats snapshots the registry's fleet-wide counters.
func (r *Registry) Stats() RegistryStats {
	if r == nil {
		return RegistryStats{}
	}
	return r.reg.Stats()
}

// Save writes the registry's shared cache to w in the framed snapshot
// format (magic, version, entry count, CRC): one snapshot warms a whole
// fleet.
func (r *Registry) Save(w io.Writer) error {
	if r == nil {
		return nil
	}
	return r.reg.Save(w)
}

// Load merges a snapshot written by Save (or by Engine.SaveCostCache)
// into the registry's shared cache, returning the number of entries
// added.
func (r *Registry) Load(rd io.Reader) (int, error) {
	if r == nil {
		return 0, nil
	}
	return r.reg.Load(rd)
}

// SaveSnapshotFile writes the shared cache to a snapshot file atomically
// (temp file + rename).
func (r *Registry) SaveSnapshotFile(path string) error {
	if r == nil {
		return nil
	}
	return r.reg.SaveSnapshotFile(path)
}

// LoadSnapshotFile merges a snapshot file into the shared cache with
// lenient warm-start semantics: a missing file loads nothing, a corrupt
// one is quarantined to path+".corrupt" and reported in the warning, and
// the fleet continues cold.
func (r *Registry) LoadSnapshotFile(path string) (n int, warning string, err error) {
	if r == nil {
		return 0, "", nil
	}
	return r.reg.LoadSnapshotFile(path)
}

// Schema returns the engine's schema rendered in algebra notation.
func (e *Engine) Schema() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.schema.String()
}

// Registry returns the registry the engine is attached to (nil for an
// engine with a private cache).
func (e *Engine) Registry() *Registry {
	return e.registry
}

// Ready is a cheap health probe: it reports whether the engine holds a
// parsed schema and a usable cost cache, without touching the search
// pipeline. Serving layers poll it for /healthz so an in-flight Advise
// (which snapshots the description and runs outside the mutex) never
// makes the probe block or flap.
func (e *Engine) Ready() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.schema != nil && e.cache != nil
}

// CacheStats reports the engine's cumulative cost-cache activity across
// all its searches (each Advice carries the per-search delta). For a
// registry-attached engine these are the engine's own hits, misses and
// dedups — its share of the fleet's traffic; Registry.Stats has the
// fleet-wide aggregate.
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.totals
}

// SetStatisticsText parses statistics in the Appendix A notation
// (STcnt/STsize/STbase entries) and attaches them to the engine.
func (e *Engine) SetStatisticsText(text string) error {
	set, err := xstats.Parse(text)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.stats = set
	e.mu.Unlock()
	return nil
}

// CollectStatistics derives statistics from example documents instead of
// an explicit statistics table.
func (e *Engine) CollectStatistics(docs ...*xmltree.Node) {
	set := xstats.Collect(docs...)
	e.mu.Lock()
	e.stats = set
	e.mu.Unlock()
}

// AddQuery parses an XQuery and adds it to the workload with a weight.
func (e *Engine) AddQuery(name, text string, weight float64) error {
	q, err := xquery.Parse(text)
	if err != nil {
		return err
	}
	q.Name = name
	e.mu.Lock()
	e.workload.Add(q, weight)
	e.mu.Unlock()
	return nil
}

// AddUpdate adds an update operation ("INSERT imdb/show/aka",
// "DELETE imdb/show", "MODIFY imdb/show/description") to the workload
// with a weight. Updates price against the chosen configuration too:
// inserts and deletes pay per relation written, modifies pay the width
// of the rewritten row. (An extension of the paper's future work.)
func (e *Engine) AddUpdate(name, text string, weight float64) error {
	u, err := xquery.ParseUpdate(text)
	if err != nil {
		return err
	}
	u.Name = name
	e.mu.Lock()
	e.workload.AddUpdate(u, weight)
	e.mu.Unlock()
	return nil
}

// Workload returns a copy of the engine's declared workload (the drift
// baseline an adaptation controller starts from).
func (e *Engine) Workload() *xquery.Workload {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.workload.Copy()
}

// Strategy selects a search strategy for Advise.
type Strategy = core.Strategy

// Search strategies.
const (
	// GreedySO starts fully outlined and inlines greedily.
	GreedySO = core.GreedySO
	// GreedySI starts fully inlined and outlines greedily.
	GreedySI = core.GreedySI
	// GreedyFull searches with the complete rewriting repertoire.
	GreedyFull = core.GreedyFull
)

// AdviseOptions tunes the search; the zero value runs greedy-so over the
// inline/outline moves, as in the paper's prototype.
type AdviseOptions struct {
	Strategy Strategy
	// Threshold stops early when an iteration improves the cost by less
	// than this fraction.
	Threshold float64
	// MaxIterations bounds the greedy loop (0 = until convergence).
	MaxIterations int
	// WildcardLabels lists element names worth materializing out of
	// wildcards, with their estimated instance fractions.
	WildcardLabels map[string]float64
	// Documents is the number of documents that will be stored
	// (default 1).
	Documents float64
	// BeamWidth switches the search from the paper's greedy loop to a
	// beam search keeping this many configurations per level (0 or 1 =
	// greedy). An extension of the paper's future work on richer search
	// strategies.
	BeamWidth int
	// Workers bounds the goroutines costing candidate configurations per
	// iteration (0 = GOMAXPROCS, 1 = sequential); the chosen
	// configuration is the same either way.
	Workers int
	// Timeout bounds the search's wall-clock time (0 = none). On expiry
	// the search stops and returns the best configuration found so far
	// (Advice.Report().Stop == StopDeadline) — an anytime result, not an
	// error. A tighter deadline on the AdviseContext context also counts.
	Timeout time.Duration
	// MaxEvaluations bounds the number of candidate configurations
	// costed (0 = unbounded); exhausting it is likewise an anytime stop
	// (StopBudget).
	MaxEvaluations int
}

// Advice is the outcome of a search: the chosen configuration and the
// search trace.
type Advice struct {
	result *core.Result
	stats  *xstats.Set
	// workload is the one the search priced; the index chooser reads it
	// on first use (see Indexes).
	workload  *xquery.Workload
	indexOnce sync.Once
	indexes   []relational.IndexRef
}

// Advise searches for an efficient storage configuration for the
// engine's schema, statistics and workload. It is AdviseContext with a
// background context.
func (e *Engine) Advise(opts AdviseOptions) (*Advice, error) {
	return e.AdviseContext(context.Background(), opts)
}

// AdviseContext is Advise under a caller-controlled context: cancelling
// ctx (or exceeding its deadline, or AdviseOptions.Timeout) stops the
// search anytime-style — the best configuration found so far is
// returned, with Advice.Report() saying why the search stopped. An
// error is returned only when no configuration was costed at all.
func (e *Engine) AdviseContext(ctx context.Context, opts AdviseOptions) (*Advice, error) {
	e.mu.Lock()
	w := e.workload.Copy()
	e.mu.Unlock()
	return e.AdviseWorkload(ctx, w, opts)
}

// AdviseWorkload is AdviseContext against a supplied workload instead of
// the engine's declared one — the adaptation loop's re-advising seam: a
// store's observed workload is searched with the engine's schema,
// statistics and shared cost cache, without disturbing the declared
// workload. Cache keys include the workload digest, so costings for
// different workloads never cross-hit.
func (e *Engine) AdviseWorkload(ctx context.Context, w *xquery.Workload, opts AdviseOptions) (*Advice, error) {
	// Snapshot the description so setters racing this search cannot
	// corrupt it mid-flight: the workload slices are copied (the parsed
	// queries inside are immutable), and schema/stats pointers are only
	// ever replaced wholesale by setters, never mutated in place.
	e.mu.Lock()
	schema, stats, cache := e.schema, e.stats, e.cache
	e.mu.Unlock()
	workload := w.Copy()
	if len(workload.Entries) == 0 && len(workload.Updates) == 0 {
		return nil, fmt.Errorf("legodb: add at least one workload query before Advise")
	}
	copts := core.Options{
		Strategy:       opts.Strategy,
		Threshold:      opts.Threshold,
		MaxIterations:  opts.MaxIterations,
		WildcardLabels: opts.WildcardLabels,
		RootCount:      opts.Documents,
		Workers:        opts.Workers,
		Deadline:       opts.Timeout,
		Budget:         opts.MaxEvaluations,
		Cache:          cache,
	}
	var res *core.Result
	var err error
	if opts.BeamWidth > 1 {
		res, err = core.BeamSearch(ctx, schema, workload, stats, core.BeamOptions{
			Options: copts, Width: opts.BeamWidth,
		})
	} else {
		res, err = core.GreedySearch(ctx, schema, workload, stats, copts)
	}
	if err != nil {
		return nil, fmt.Errorf("legodb: advise: %w", err)
	}
	e.mu.Lock()
	e.totals.Accumulate(res.Cache)
	e.mu.Unlock()
	return &Advice{result: res, stats: stats, workload: workload}, nil
}

// SaveCostCache writes the engine's cost-cache contents to w so a later
// process can warm up from them (see Engine.LoadCostCache). The format
// contains only digests and costs — no schema or query text.
func (e *Engine) SaveCostCache(w io.Writer) error {
	return e.snapshotCache().Save(w)
}

// snapshotCache reads the engine's cache pointer under the mutex (the
// pointer changes only when an engine attaches to a registry, but the
// contract says any method may race any other).
func (e *Engine) snapshotCache() *core.CostCache {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cache
}

// LoadCostCache merges a snapshot written by SaveCostCache into the
// engine's cost cache and returns the number of entries added. Entries
// only ever match when schema, workload, root count and cost model all
// digest identically, so loading a stale or foreign snapshot is safe —
// it just never hits.
func (e *Engine) LoadCostCache(r io.Reader) (int, error) {
	return e.snapshotCache().Load(r)
}

// SaveCostCacheFile writes the engine's cost cache to a snapshot file
// atomically (temp file + rename).
func (e *Engine) SaveCostCacheFile(path string) error {
	return e.snapshotCache().SaveSnapshotFile(path)
}

// LoadCostCacheFile merges a snapshot file into the engine's cost cache
// with lenient semantics: a missing file loads nothing, and a corrupt
// file (truncated, bit-flipped, wrong version) is quarantined to
// path+".corrupt" and reported in the returned warning — the engine
// continues with a cold cache instead of failing the run.
func (e *Engine) LoadCostCacheFile(path string) (n int, warning string, err error) {
	return e.snapshotCache().LoadSnapshotFile(path)
}

// EvaluateFixed costs a fixed named configuration ("all-inlined" or
// "all-outlined") without searching; useful as a baseline. The optional
// AdviseOptions carries the knob that changes a fixed costing —
// Documents, the stored document count (default 1) — so a baseline is
// priced under the same assumptions as the search it is compared
// against.
func (e *Engine) EvaluateFixed(config string, opts ...AdviseOptions) (*Advice, error) {
	var o AdviseOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	e.mu.Lock()
	schema, stats, workload, cache := e.schema, e.stats, e.workload.Copy(), e.cache
	e.mu.Unlock()
	annotated := schema.Clone()
	if stats != nil {
		if err := xstats.Annotate(annotated, stats); err != nil {
			return nil, err
		}
	}
	var ps *xschema.Schema
	var err error
	switch config {
	case "all-inlined":
		ps, err = pschema.AllInlined(annotated)
	case "all-outlined":
		ps, err = pschema.InitialOutlined(annotated)
	default:
		return nil, fmt.Errorf("legodb: unknown fixed configuration %q", config)
	}
	if err != nil {
		return nil, err
	}
	documents := o.Documents
	if documents == 0 {
		documents = 1
	}
	// Evaluate through the engine cache: a later Advise revisiting this
	// fixed configuration (or a repeated baseline evaluation) costs it
	// for free. Documents is part of the workload digest, so baselines
	// priced for different corpus sizes never cross-hit.
	cacheStart := cache.Stats()
	eval := &core.Evaluator{Workload: workload, RootCount: documents, Cache: cache}
	cfg, _, err := eval.EvaluateCached(context.Background(), ps)
	if err != nil {
		return nil, err
	}
	if cfg, err = eval.Materialize(context.Background(), cfg); err != nil {
		return nil, err
	}
	res := &core.Result{Best: cfg, InitialCost: cfg.Cost, Evals: eval.Evals()}
	res.Cache = cache.Stats().Sub(cacheStart)
	e.mu.Lock()
	e.totals.Accumulate(res.Cache)
	e.mu.Unlock()
	return &Advice{result: res, stats: stats, workload: workload}, nil
}

// Cost is the estimated workload cost of the chosen configuration.
func (a *Advice) Cost() float64 { return a.result.Best.Cost }

// InitialCost is the cost of the search's starting configuration.
func (a *Advice) InitialCost() float64 { return a.result.InitialCost }

// PSchema renders the chosen physical schema in algebra notation.
func (a *Advice) PSchema() string { return a.result.Best.Schema.String() }

// DDL renders the chosen relational configuration as CREATE TABLE
// statements, followed by one CREATE INDEX line per secondary index the
// cost model chooses for the declared workload (see Indexes).
func (a *Advice) DDL() string {
	cat := a.indexedCatalog()
	return cat.SQL() + cat.IndexSQL()
}

// SQL renders the translated workload queries for the chosen
// configuration.
func (a *Advice) SQL() string {
	out := ""
	for _, q := range a.result.Best.Queries {
		out += q.String() + ";\n\n"
	}
	return out
}

// Trace returns the per-iteration costs of the greedy search, starting
// with the initial configuration's cost.
func (a *Advice) Trace() []float64 {
	out := []float64{a.result.InitialCost}
	for _, it := range a.result.Trace {
		out = append(out, it.Cost)
	}
	return out
}

// Explain summarizes the search: iterations, moves, costs and — when
// the search was interrupted or recovered from failures — how it
// degraded.
func (a *Advice) Explain() string {
	out := fmt.Sprintf("initial cost: %.1f\n", a.result.InitialCost)
	for i, it := range a.result.Trace {
		out += fmt.Sprintf("iteration %d: %-40s cost %.1f\n", i+1, it.Applied, it.Cost)
	}
	out += fmt.Sprintf("final cost: %.1f\n", a.result.Best.Cost)
	if st := a.result.Cache; st.Hits+st.Misses > 0 {
		out += fmt.Sprintf("cost cache: %d hits, %d misses, %d full evaluations\n",
			st.Hits, st.Misses, a.result.Evals)
	}
	if rep := a.result.Report; rep.Stop.Interrupted() || rep.Failed > 0 {
		out += fmt.Sprintf("stopped: %s (%d candidates evaluated, %d skipped, %d failed)\n",
			rep.Stop, rep.Evaluated, rep.Skipped, rep.Failed)
	}
	return out
}

// Report describes how the search ran and why it stopped: the stop
// reason (converged, threshold, deadline, cancelled, budget, …),
// candidates evaluated/skipped, and any candidate evaluations the
// search isolated and recovered from (errors, panics, memo fallbacks).
func (a *Advice) Report() SearchReport { return a.result.Report }

// CacheStats reports the cost-cache activity of this search: how many
// candidate costings were answered from the engine's memoization layer
// versus paid a full evaluator pipeline run.
func (a *Advice) CacheStats() CacheStats { return a.result.Cache }

// EvaluatorCalls is the number of full cost-evaluation pipeline runs
// (relational mapping + workload translation + optimizer costing) the
// search performed.
func (a *Advice) EvaluatorCalls() uint64 { return a.result.Evals }

// Translations is the number of query (or update) translate+cost runs
// the search performed; a workload slot whose dependencies a move left
// untouched reuses the cost its base configuration recorded instead.
func (a *Advice) Translations() uint64 { return a.result.Translations }

// QueryCacheStats reports this search's slot reuse: hits count workload
// slots an evaluation reused from its base configuration (no
// translate+cost run), misses the slots it translated and costed.
func (a *Advice) QueryCacheStats() (hits, misses uint64) {
	return a.result.QueryCacheHits, a.result.QueryCacheMisses
}

// TransformKind re-exports the rewriting families for advanced use.
type TransformKind = transform.Kind

// CostModel re-exports the optimizer's cost model constants.
type CostModel = optimizer.CostModel

// CacheStats re-exports the cost-cache counters (hits, misses,
// evictions, entries).
type CacheStats = core.CacheStats

// SearchReport re-exports the per-search robustness report (stop
// reason, candidates evaluated/skipped/failed, recovered errors).
type SearchReport = core.SearchReport

// StopReason re-exports why a search stopped.
type StopReason = core.StopReason

// CandidateError re-exports one isolated candidate failure.
type CandidateError = core.CandidateError

// Stop reasons (see core.StopReason).
const (
	StopConverged     = core.StopConverged
	StopThreshold     = core.StopThreshold
	StopMaxIterations = core.StopMaxIterations
	StopMaxLevels     = core.StopMaxLevels
	StopDeadline      = core.StopDeadline
	StopCancelled     = core.StopCancelled
	StopBudget        = core.StopBudget
)
