package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"legodb"
	"legodb/internal/core"
	"legodb/internal/imdb"
	"legodb/internal/optimizer"
	"legodb/internal/plan"
	"legodb/internal/relational"
	"legodb/internal/sqlast"
	"legodb/internal/transform"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

// search is one of the seven searches of a bundle: the paper's Figure 10
// (lookup and publish workloads, greedy-so and greedy-si) and Figure 11
// (mixed workloads, greedy-si).
type search struct {
	name     string
	workload *xquery.Workload
	strategy legodb.Strategy
}

func bundleSearches() []search {
	return []search{
		{"lookup-so", imdb.LookupWorkload(), legodb.GreedySO},
		{"lookup-si", imdb.LookupWorkload(), legodb.GreedySI},
		{"publish-so", imdb.PublishWorkload(), legodb.GreedySO},
		{"publish-si", imdb.PublishWorkload(), legodb.GreedySI},
		{"mixed-0.25", imdb.MixedWorkload(0.25), legodb.GreedySI},
		{"mixed-0.50", imdb.MixedWorkload(0.5), legodb.GreedySI},
		{"mixed-0.75", imdb.MixedWorkload(0.75), legodb.GreedySI},
	}
}

// golden is the winner a search must find: the advisor may get faster,
// it may not start advising dearer layouts.
type golden struct {
	Cost        float64 `json:"cost"`
	Fingerprint string  `json:"fingerprint"`
}

//go:embed goldens.json
var goldensJSON []byte

func loadGoldens() (map[string]golden, error) {
	var g map[string]golden
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens.json: %w", err)
	}
	return g, nil
}

// advised is what one search of a bundle produced.
type advised struct {
	name        string
	cold, warm  time.Duration
	advice      *legodb.Advice
	warmAdvice  *legodb.Advice
	fingerprint string
}

// runSearch advises once on a fresh engine (fresh cost cache), then
// again on the same engine: the second search is the re-advise a
// resident daemon pays.
func runSearch(s search) (advised, error) {
	opts := legodb.AdviseOptions{Strategy: s.strategy, Workers: 1}
	start := time.Now()
	eng, err := legodb.New(imdb.SchemaText)
	if err != nil {
		return advised{}, err
	}
	if err := eng.SetStatisticsText(imdb.Stats().String()); err != nil {
		return advised{}, err
	}
	for _, e := range s.workload.Entries {
		if err := eng.AddQuery(e.Query.Name, e.Query.String(), e.Weight); err != nil {
			return advised{}, fmt.Errorf("%s: %w", e.Query.Name, err)
		}
	}
	adv, err := eng.AdviseContext(context.Background(), opts)
	if err != nil {
		return advised{}, err
	}
	cold := time.Since(start)
	start = time.Now()
	again, err := eng.AdviseContext(context.Background(), opts)
	if err != nil {
		return advised{}, err
	}
	warm := time.Since(start)
	ps, err := xschema.ParseSchema(adv.PSchema())
	if err != nil {
		return advised{}, fmt.Errorf("advised p-schema does not parse: %w", err)
	}
	return advised{name: s.name, cold: cold, warm: warm, advice: adv, warmAdvice: again,
		fingerprint: ps.Fingerprint().String()}, nil
}

// runBundle runs the seven searches in the given order.
func runBundle(tr *tracer, req int, searches []search, order []int) ([]advised, error) {
	root := tr.begin("bundle", -1, req)
	defer tr.end(root)
	out := make([]advised, 0, len(order))
	for _, i := range order {
		sp := tr.begin("legodb.advise "+searches[i].name, root, req)
		a, err := runSearch(searches[i])
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", searches[i].name, err)
		}
		out = append(out, a)
	}
	return out, nil
}

// checkWinners counts one attempted check per search and a failure for
// every winner dearer than its golden, or for a warm re-advise that
// disagrees with the cold one.
func checkWinners(r *run, goldens map[string]golden, as []advised) {
	for _, a := range as {
		g, ok := goldens[a.name]
		switch {
		case !ok:
			r.check(fmt.Errorf("%s: no golden", a.name))
		case a.advice.Cost() > g.Cost*(1+1e-9):
			r.check(fmt.Errorf("%s: advised cost %.6f is worse than golden %.6f", a.name, a.advice.Cost(), g.Cost))
		case a.warmAdvice.Cost() != a.advice.Cost():
			r.check(fmt.Errorf("%s: warm re-advise cost %.6f differs from cold %.6f", a.name, a.warmAdvice.Cost(), a.advice.Cost()))
		default:
			r.check(nil)
		}
	}
}

func bundleTimes(as []advised) (cold, warm time.Duration) {
	for _, a := range as {
		cold += a.cold
		warm += a.warm
	}
	return cold, warm
}

// adviseSearch is the workload of the paper's contribution: bundles of
// seven cold searches, each followed by a warm repeat. All of its time
// is in the advisor's layers and none in the store's.
func adviseSearch(r *run) error {
	goldens, err := loadGoldens()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	// Set-up is what a process pays before its first useful search:
	// parsing the embedded workloads and one bundle that faults in code
	// and sizes the heap.
	var searches []search
	var setup []float64
	for i := 0; i < r.sz.setupRounds; i++ {
		start := time.Now()
		searches = bundleSearches()
		if _, err := runBundle(nil, 0, searches, rng.Perm(len(searches))); err != nil {
			return err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	r.set("setup_s", median(setup), len(setup))

	var cold, warm []float64
	start := time.Now()
	for time.Since(start) < r.dur {
		as, err := runBundle(nil, 0, searches, rng.Perm(len(searches)))
		if err != nil {
			return err
		}
		checkWinners(r, goldens, as)
		c, w := bundleTimes(as)
		cold = append(cold, ms(c))
		warm = append(warm, ms(w))
	}
	wall := time.Since(start)
	r.set("ops_per_s", float64(len(cold))/wall.Seconds(), len(cold))
	r.set("p50_ms", median(cold), len(cold))
	r.set("second_p50_ms", median(warm), len(warm))
	r.note("bundles %d (7 cold + 7 warm searches each); cold bundle p50 %.2f ms, warm bundle p50 %.2f ms",
		len(cold), median(cold), median(warm))
	return nil
}

// adviseSlice is the traced tenth of advise-search: bundles without and
// then with spans around every search.
func adviseSlice(r *run, g *rig) error {
	rng := rand.New(rand.NewSource(r.seed))
	searches := bundleSearches()
	rate := func(tr *tracer) (float64, error) {
		n := 0
		start := time.Now()
		for n == 0 || time.Since(start) < r.dur/10 {
			if _, err := runBundle(tr, n, searches, rng.Perm(len(searches))); err != nil {
				return 0, err
			}
			n++
		}
		return float64(n) / time.Since(start).Seconds(), nil
	}
	plain, err := rate(nil)
	if err != nil {
		return err
	}
	traced, err := rate(g.tr)
	if err != nil {
		return err
	}
	r.set("trace.overhead_share", 1-traced/plain, 1)
	return nil
}

// probeAdvisor times the advisor's layers from outside. Counters come
// from one bundle through the public Advice accessors and repeat exactly;
// stage times come from one hand-rolled, uncached evaluation (apply →
// annotate → map → translate → cost) of every first-iteration candidate
// of the lookup workload under both strategies.
func probeAdvisor(r *run, tr *tracer) error {
	goldens, err := loadGoldens()
	if err != nil {
		return err
	}
	searches := bundleSearches()
	order := make([]int, len(searches))
	for i := range order {
		order[i] = i
	}
	var colds, warms []float64
	var last []advised
	for i := 0; i < (r.sz.repeats+1)/2; i++ {
		as, err := runBundle(nil, 0, searches, order)
		if err != nil {
			return err
		}
		c, w := bundleTimes(as)
		colds, warms, last = append(colds, ms(c)), append(warms, ms(w)), as
	}
	checkWinners(r, goldens, last)
	var evals, translations, evaluated, qhits, qmisses, chits, cmisses, breq, bcost uint64
	logRatio, matches := 0.0, 0
	for _, a := range last {
		rep := a.advice.Report()
		evals += a.advice.EvaluatorCalls()
		translations += a.advice.Translations()
		evaluated += uint64(rep.Evaluated)
		h, m := a.advice.QueryCacheStats()
		qhits, qmisses = qhits+h, qmisses+m
		breq, bcost = breq+rep.BlocksRequested, bcost+rep.BlocksCosted
		for _, st := range []legodb.CacheStats{a.advice.CacheStats(), a.warmAdvice.CacheStats()} {
			chits, cmisses = chits+st.Hits, cmisses+st.Misses
		}
		logRatio += math.Log(a.advice.Cost() / a.advice.InitialCost())
		if a.fingerprint == goldens[a.name].Fingerprint {
			matches++
		}
	}
	cold := median(colds)
	r.set("core.evals_n", float64(evals), 1)
	r.set("core.translations_n", float64(translations), 1)
	r.set("core.query_cache_hit_ratio", float64(qhits)/float64(qhits+qmisses), 1)
	r.set("core.cost_cache_hit_ratio", float64(chits)/float64(chits+cmisses), 1)
	r.set("plan.block_sharing_ratio", float64(breq)/float64(bcost), 1)
	r.set("core.eval_us", cold*1e3/float64(evals), len(colds))
	r.set("core.warm_advise_ms", median(warms), len(warms))
	r.set("core.advise_cost_ratio", math.Exp(logRatio/float64(len(last))), 1)
	r.set("core.winner_fingerprint_match_n", float64(matches), 1)

	stats := imdb.Stats()
	wl := imdb.LookupWorkload()
	stages := make(map[string][]float64)
	req := 0
	for _, strategy := range []core.Strategy{core.GreedySO, core.GreedySI} {
		annotated := imdb.Schema()
		if err := xstats.Annotate(annotated, stats); err != nil {
			return err
		}
		ps, err := core.InitialSchema(annotated, strategy)
		if err != nil {
			return err
		}
		kinds := []transform.Kind{transform.KindInline}
		if strategy == core.GreedySI {
			kinds = []transform.Kind{transform.KindOutline}
		}
		var cands []transform.Transformation
		stages["transform.candidates"] = append(stages["transform.candidates"], us(tr.timed("transform.candidates", -1, req, func() {
			cands = transform.Candidates(ps, transform.Options{Kinds: kinds})
		})))
		for _, cand := range cands {
			req++
			if err := evaluateByHand(tr, req, stages, ps, cand, stats, wl); err != nil {
				return fmt.Errorf("%s: %w", cand, err)
			}
		}
	}
	stage := func(name string) float64 {
		v := median(stages[name])
		r.set(name+"_us", v, len(stages[name]))
		return v
	}
	stage("transform.candidates")
	apply := stage("transform.apply")
	stage("xstats.annotate")
	mapping := stage("relational.map")
	translate := stage("xquery.translate")
	stage("optimizer.querycost")
	costing := stage("plan.space_querycost")
	// What the search spends outside its pipeline stages — memo lookups,
	// cloning, dispatch — is the bundle time the stage counts cannot
	// account for.
	staged := apply*float64(evaluated) + mapping*float64(evals) + (translate+costing)*float64(translations)
	r.set("core.overhead_share", 1-staged/(cold*1e3), 1)
	return nil
}

// evaluateByHand costs one candidate the way the search does, without
// any of the search's caches, with a span around every stage.
func evaluateByHand(tr *tracer, req int, stages map[string][]float64, base *xschema.Schema, cand transform.Transformation, stats *xstats.Set, wl *xquery.Workload) error {
	root := tr.begin("candidate", -1, req)
	defer tr.end(root)
	var err error
	step := func(name string, fn func()) {
		stages[name] = append(stages[name], us(tr.timed(name, root, req, fn)))
	}
	var next *xschema.Schema
	step("transform.apply", func() { next, err = transform.Apply(base, cand) })
	if err != nil {
		return err
	}
	step("xstats.annotate", func() { err = xstats.Annotate(next, stats) })
	if err != nil {
		return err
	}
	var cat *relational.Catalog
	step("relational.map", func() { cat, err = relational.Map(next) })
	if err != nil {
		return err
	}
	opt := optimizer.New(cat)
	space := plan.NewSpace(opt, core.ModelID(nil), nil)
	for _, e := range wl.Entries {
		var sq *sqlast.Query
		step("xquery.translate", func() { sq, err = xquery.Translate(e.Query, next, cat) })
		if err != nil {
			return err
		}
		step("optimizer.querycost", func() { _, err = opt.QueryCost(sq) })
		if err != nil {
			return err
		}
		step("plan.space_querycost", func() { _, err = space.QueryCost(sq) })
		if err != nil {
			return err
		}
	}
	return nil
}

// writeGoldens prints the goldens of the current tree; it is how
// goldens.json is regenerated when a change means to move the winners.
func writeGoldens() error {
	searches := bundleSearches()
	out := make(map[string]golden)
	for _, s := range searches {
		a, err := runSearch(s)
		if err != nil {
			return err
		}
		out[s.name] = golden{Cost: a.advice.Cost(), Fingerprint: a.fingerprint}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
