package legodb

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (each runs the generator + parameter sweep + cost
// evaluation that regenerates the artifact; the rows themselves are
// printed by `go run ./cmd/experiments`), plus ablation and component
// micro-benchmarks.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"legodb/internal/core"
	"legodb/internal/engine"
	"legodb/internal/experiments"
	"legodb/internal/faults"
	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/shred"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Run(name)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig6StorageMaps regenerates Figure 6: Q1–Q4 and W1/W2 costs
// under the three storage mappings of Figure 4.
func BenchmarkFig6StorageMaps(b *testing.B) { benchExperiment(b, "fig6") }

// benchGreedy runs the Figure 10 searches (both workloads) per
// iteration against one cost cache shared across the whole benchmark,
// and reports the evaluator traffic: evals/op counts cost-pipeline runs,
// hits/op the candidate costings answered from memory, translations/op
// the per-slot translate+cost runs slot reuse could not avoid.
func benchGreedy(b *testing.B, strategy core.Strategy) {
	b.Helper()
	cache := core.NewCostCache(0)
	var evals, hits, translations, qhits, qmisses uint64
	for i := 0; i < b.N; i++ {
		for _, wl := range []*xquery.Workload{imdb.LookupWorkload(), imdb.PublishWorkload()} {
			res, err := core.GreedySearch(context.Background(), imdb.Schema(), wl, imdb.Stats(), core.Options{Strategy: strategy, Cache: cache})
			if err != nil {
				b.Fatal(err)
			}
			if res.Best.Cost > res.InitialCost {
				b.Fatal("search worsened cost")
			}
			evals += res.Evals
			hits += res.Cache.Hits
			translations += res.Translations
			qhits += res.QueryCacheHits
			qmisses += res.QueryCacheMisses
		}
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	b.ReportMetric(float64(translations)/float64(b.N), "translations/op")
	if qhits+qmisses > 0 {
		b.ReportMetric(100*float64(qhits)/float64(qhits+qmisses), "qcache-hit-%")
	}
}

// BenchmarkFig10GreedySO regenerates the greedy-so convergence series of
// Figure 10 (both workloads; the SI series is measured separately below),
// with the cost cache shared across iterations — after the first search
// warms it, later runs pay only the per-iteration winner
// materializations.
func BenchmarkFig10GreedySO(b *testing.B) { benchGreedy(b, core.GreedySO) }

// BenchmarkFig10GreedySI regenerates the greedy-si convergence series of
// Figure 10 (see BenchmarkFig10GreedySO for the cache setup).
func BenchmarkFig10GreedySI(b *testing.B) { benchGreedy(b, core.GreedySI) }

// BenchmarkFig11Sensitivity regenerates Figure 11: the workload-mix
// sensitivity sweep with C[0.25]/C[0.50]/C[0.75], ALL-INLINED and OPT.
// The sweep's 15 searches overlap heavily, so the experiments package's
// shared cache absorbs most of the cost; hits/op and misses/op report
// its traffic.
func BenchmarkFig11Sensitivity(b *testing.B) {
	start := experiments.CacheStats()
	benchExperiment(b, "fig11")
	st := experiments.CacheStats().Sub(start)
	b.ReportMetric(float64(st.Hits)/float64(b.N), "hits/op")
	b.ReportMetric(float64(st.Misses)/float64(b.N), "misses/op")
}

// BenchmarkFig13UnionDistribution regenerates Figure 13: the
// union-transformed configuration against all-inlined on Figure 12's
// queries.
func BenchmarkFig13UnionDistribution(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14RepetitionSplit regenerates Figure 14: the aka
// repetition-split sweep.
func BenchmarkFig14RepetitionSplit(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkTable2Wildcard regenerates Table 2: wildcard materialization
// under varying review counts and NYT fractions.
func BenchmarkTable2Wildcard(b *testing.B) { benchExperiment(b, "tab2") }

// BenchmarkAblationThreshold measures the early-stopping ablation.
func BenchmarkAblationThreshold(b *testing.B) { benchExperiment(b, "ablation-threshold") }

// BenchmarkAblationSIvsSO measures the starting-point ablation.
func BenchmarkAblationSIvsSO(b *testing.B) { benchExperiment(b, "ablation-si-vs-so") }

// BenchmarkAblationCostModelValidation measures the estimate-vs-engine
// agreement experiment (shreds generated data and executes the
// workload).
func BenchmarkAblationCostModelValidation(b *testing.B) { benchExperiment(b, "ablation-costmodel") }

// BenchmarkAblationBeam measures the greedy-vs-beam search ablation.
func BenchmarkAblationBeam(b *testing.B) { benchExperiment(b, "ablation-beam") }

// BenchmarkAblationUpdates measures the update-workload ablation.
func BenchmarkAblationUpdates(b *testing.B) { benchExperiment(b, "ablation-updates") }

type adviseBundleSearch struct {
	workload *xquery.Workload
	strategy Strategy
}

// adviseBundleSearches are the seven searches of one advise-search
// bundle of the benchmark module (benchmark/advise.go): the paper's
// Figure 10 (lookup and publish, greedy-so and greedy-si) and Figure 11
// (mixed workloads, greedy-si).
func adviseBundleSearches() []adviseBundleSearch {
	return []adviseBundleSearch{
		{imdb.LookupWorkload(), GreedySO},
		{imdb.LookupWorkload(), GreedySI},
		{imdb.PublishWorkload(), GreedySO},
		{imdb.PublishWorkload(), GreedySI},
		{imdb.MixedWorkload(0.25), GreedySI},
		{imdb.MixedWorkload(0.5), GreedySI},
		{imdb.MixedWorkload(0.75), GreedySI},
	}
}

// BenchmarkAdviseBundle runs one advise-search bundle per iteration, in
// process: each of the seven searches advises cold on a fresh engine
// (fresh cost cache), then warm again on the same engine, with one
// worker — the same calls the benchmark module makes, so a CPU profile
// of the advisor needs only
//
//	go test -run '^$' -bench BenchmarkAdviseBundle -cpuprofile cpu.prof .
func BenchmarkAdviseBundle(b *testing.B) {
	searches := adviseBundleSearches()
	stats := imdb.Stats().String()
	opts := AdviseOptions{Workers: 1}
	for i := 0; i < b.N; i++ {
		for _, s := range searches {
			eng, err := New(imdb.SchemaText)
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.SetStatisticsText(stats); err != nil {
				b.Fatal(err)
			}
			for _, e := range s.workload.Entries {
				if err := eng.AddQuery(e.Query.Name, e.Query.String(), e.Weight); err != nil {
					b.Fatal(err)
				}
			}
			opts.Strategy = s.strategy
			cold, err := eng.AdviseContext(context.Background(), opts)
			if err != nil {
				b.Fatal(err)
			}
			warm, err := eng.AdviseContext(context.Background(), opts)
			if err != nil {
				b.Fatal(err)
			}
			if warm.Cost() != cold.Cost() {
				b.Fatalf("warm re-advise cost %g differs from cold %g", warm.Cost(), cold.Cost())
			}
		}
	}
}

// oracleRTT is BenchmarkSearchWorkers' simulated round trip per
// optimizer costing: the SiteQueryCost fault hook sleeps this long,
// modelling a cost oracle out of process (the paper's optimizer was a
// separate server). On a CPU-bound search worker scaling is invisible on
// a small machine; latency-bound costing is what the worker pool hides.
const oracleRTT = 2 * time.Millisecond

// BenchmarkSearchWorkers sweeps the candidate-evaluation worker pool
// over one greedy-so lookup search per op, on a fresh cache, with every
// costing paying oracleRTT. ns/op across the sub-benchmarks is the
// pool's scaling; evaluations/op (candidate costings, cache hits
// included) must not move with the worker count.
func BenchmarkSearchWorkers(b *testing.B) {
	restore := faults.EnableHook(faults.SiteQueryCost, -1, func() { time.Sleep(oracleRTT) })
	defer restore()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var evaluated int64
			for i := 0; i < b.N; i++ {
				res, err := core.GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), core.Options{
					Strategy: core.GreedySO, Workers: workers, Cache: core.NewCostCache(0),
				})
				if err != nil {
					b.Fatal(err)
				}
				evaluated += res.Report.Evaluated
			}
			b.ReportMetric(float64(evaluated)/float64(b.N), "evaluations/op")
		})
	}
}

// BenchmarkReadviseRefreshedStats times a re-advise under refreshed
// statistics: per op, one cost cache is warmed (untimed) by greedy-so and
// greedy-si lookup searches, then the same two searches run on it with
// RootCount 2. Every table's cardinality has moved, so no configuration
// cost carries over; only block costings of unchanged tables and the
// search's own slot reuse can. translations/op counts the per-slot
// translate+cost runs of the timed searches.
func BenchmarkReadviseRefreshedStats(b *testing.B) {
	strategies := []core.Strategy{core.GreedySO, core.GreedySI}
	search := func(cache *core.CostCache, strategy core.Strategy, rootCount float64) *core.Result {
		res, err := core.GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), core.Options{
			Strategy: strategy, RootCount: rootCount, Workers: 1, Cache: cache,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var translations uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cache := core.NewCostCache(0)
		for _, s := range strategies {
			search(cache, s, 1)
		}
		b.StartTimer()
		for _, s := range strategies {
			translations += search(cache, s, 2).Translations
		}
	}
	b.ReportMetric(float64(translations)/float64(b.N), "translations/op")
}

// --- component micro-benchmarks ---

// BenchmarkGreedyIteration measures one full greedy-search run on the
// paper's lookup workload (the ~3s/iteration loop of Section 5.2 runs in
// milliseconds here).
func BenchmarkGreedyIteration(b *testing.B) {
	schema := imdb.Schema()
	stats := imdb.Stats()
	wl := imdb.LookupWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedySearch(context.Background(), schema, wl, stats, core.Options{Strategy: core.GreedySO, MaxIterations: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateConfiguration measures one GetPSchemaCost round trip:
// p-schema -> relations+statistics -> SQL -> optimizer.
func BenchmarkEvaluateConfiguration(b *testing.B) {
	s := imdb.AnnotatedSchema()
	ps, err := pschema.AllInlined(s)
	if err != nil {
		b.Fatal(err)
	}
	wl := imdb.LookupWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GetPSchemaCost(ps, wl, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslateWorkload measures XQuery-to-SQL translation of the
// complete Appendix C workload.
func BenchmarkTranslateWorkload(b *testing.B) {
	s := imdb.AnnotatedSchema()
	ps, err := pschema.AllInlined(s)
	if err != nil {
		b.Fatal(err)
	}
	cat, err := relational.Map(ps)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]*xquery.Query, 0, len(imdb.QueryNames()))
	for _, name := range imdb.QueryNames() {
		queries = append(queries, imdb.Query(name))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := xquery.Translate(q, ps, cat); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPublishIMDB measures document reconstruction throughput.
func BenchmarkPublishIMDB(b *testing.B) {
	s := imdb.AnnotatedSchema()
	ps, err := pschema.AllInlined(s)
	if err != nil {
		b.Fatal(err)
	}
	cat, err := relational.Map(ps)
	if err != nil {
		b.Fatal(err)
	}
	doc := imdb.Generate(imdb.GenOptions{Shows: 100, Seed: 5})
	db := engine.NewDatabase(cat)
	if err := shred.New(ps, cat, db).Shred(doc); err != nil {
		b.Fatal(err)
	}
	pub := shred.NewPublisher(ps, cat, db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pub.PublishAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteLookup measures engine execution of a translated
// lookup query.
func BenchmarkExecuteLookup(b *testing.B) {
	s := imdb.AnnotatedSchema()
	ps, err := pschema.AllInlined(s)
	if err != nil {
		b.Fatal(err)
	}
	cat, err := relational.Map(ps)
	if err != nil {
		b.Fatal(err)
	}
	doc := imdb.Generate(imdb.GenOptions{Shows: 300, Seed: 5})
	db := engine.NewDatabase(cat)
	if err := shred.New(ps, cat, db).Shred(doc); err != nil {
		b.Fatal(err)
	}
	q := xquery.MustParse(`FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/title, $v/year`)
	sq, err := xquery.Translate(q, ps, cat)
	if err != nil {
		b.Fatal(err)
	}
	title := doc.Path("show", "title")[0].Text
	params := engine.Params{"c1": engine.StrVal(title)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(sq, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFingerprint measures the canonical fingerprint of the IMDB
// schema — the per-candidate overhead the cost cache adds to a search.
func BenchmarkFingerprint(b *testing.B) {
	s := imdb.AnnotatedSchema()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fp := s.Fingerprint(); fp == (xschema.Fingerprint{}) {
			b.Fatal("zero fingerprint")
		}
	}
}

// BenchmarkValidateDocument measures schema validation.
func BenchmarkValidateDocument(b *testing.B) {
	s := imdb.Schema()
	doc := imdb.Generate(imdb.GenOptions{Shows: 100, Seed: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ValidateDocument(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectStatistics measures statistics collection from data.
func BenchmarkCollectStatistics(b *testing.B) {
	doc := imdb.Generate(imdb.GenOptions{Shows: 100, Seed: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := xstats.Collect(doc)
		if set.Count("imdb", "show") != 100 {
			b.Fatal("bad collection")
		}
	}
}

// BenchmarkGenerateRandomDocument measures the random document generator
// used by the property tests.
func BenchmarkGenerateRandomDocument(b *testing.B) {
	s := imdb.Schema()
	g := xschema.NewGenerator(s, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}
