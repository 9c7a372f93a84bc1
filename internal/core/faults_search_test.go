package core

import (
	"context"
	"fmt"
	"testing"

	"legodb/internal/faults"
	"legodb/internal/imdb"
	"legodb/internal/xquery"
	"legodb/internal/xstats"
)

// warmInitialCost puts the strategy's initial-schema cost into the
// cache, reproducing exactly what GreedySearch evaluates first, so a
// fault armed before the search fires on a candidate evaluation rather
// than on the (unguarded, pre-anytime) initial one.
func warmInitialCost(t *testing.T, strategy Strategy, wkld *xquery.Workload, cache *CostCache) {
	t.Helper()
	annotated := imdb.Schema().Clone()
	if err := xstats.Annotate(annotated, imdb.Stats()); err != nil {
		t.Fatal(err)
	}
	ps, err := InitialSchema(annotated, strategy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GetPSchemaCostWith(ps, wkld, 1, nil, cache); err != nil {
		t.Fatal(err)
	}
}

// finalSignature renders just the search's outcome (winning cost and
// schema), ignoring the trajectory — transient faults may reorder the
// applied moves without changing where greedy converges.
func finalSignature(res *Result) string {
	return fmt.Sprintf("%x\n%s", res.Best.Cost, res.Best.Schema.String())
}

// TestInjectedPanicIsIsolatedFromSearch: a candidate whose relational
// mapping panics is recorded and skipped; the search terminates, the
// worker pool settles, and the winner matches the fault-free run.
func TestInjectedPanicIsIsolatedFromSearch(t *testing.T) {
	opts := func(cache *CostCache) Options {
		return Options{Strategy: GreedySO, Workers: 1, Cache: cache}
	}
	baseline, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), opts(NewCostCache(0)))
	if err != nil {
		t.Fatal(err)
	}

	cache := NewCostCache(0)
	warmInitialCost(t, GreedySO, imdb.LookupWorkload(), cache)
	restore := faults.Enable(faults.SiteMap, 1, true)
	defer restore()
	res, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), opts(cache))
	if err != nil {
		t.Fatalf("search with an injected panic returned error: %v", err)
	}
	if hits := faults.Hits(faults.SiteMap); hits != 1 {
		t.Fatalf("failpoint fired %d times, want 1 (did the initial evaluation hit the cache?)", hits)
	}
	if res.Report.Failed != 1 {
		t.Fatalf("report.Failed = %d, want 1", res.Report.Failed)
	}
	ce := res.Report.Errors[0]
	if !ce.Panic || ce.Stage != "evaluate" || ce.Stack == "" {
		t.Fatalf("candidate error does not describe a recovered evaluation panic: %+v", ce)
	}
	if got, want := finalSignature(res), finalSignature(baseline); got != want {
		t.Fatalf("fault-injected search diverged from the fault-free winner:\n got %s\nwant %s", got, want)
	}
}

// TestTransientFaultsConvergeToFaultFreeWinner: error-mode faults that
// poison the first few candidate translations are skipped; the moves
// are regenerated on later iterations and greedy converges to the same
// winner as the fault-free baseline.
func TestTransientFaultsConvergeToFaultFreeWinner(t *testing.T) {
	opts := func(cache *CostCache) Options {
		return Options{Strategy: GreedySO, Workers: 1, Cache: cache}
	}
	baseline, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), opts(NewCostCache(0)))
	if err != nil {
		t.Fatal(err)
	}

	cache := NewCostCache(0)
	warmInitialCost(t, GreedySO, imdb.LookupWorkload(), cache)
	restore := faults.Enable(faults.SiteTranslate, 3, false)
	defer restore()
	res, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), opts(cache))
	if err != nil {
		t.Fatalf("search with transient faults returned error: %v", err)
	}
	if hits := faults.Hits(faults.SiteTranslate); hits != 3 {
		t.Fatalf("failpoint fired %d times, want 3", hits)
	}
	if res.Report.Failed != 3 {
		t.Fatalf("report.Failed = %d, want 3", res.Report.Failed)
	}
	for _, ce := range res.Report.Errors {
		if ce.Panic || ce.Stage != "evaluate" {
			t.Fatalf("unexpected candidate error: %+v", ce)
		}
	}
	if got, want := finalSignature(res), finalSignature(baseline); got != want {
		t.Fatalf("fault-injected search diverged from the fault-free winner:\n got %s\nwant %s", got, want)
	}
}

// TestMaterializeFailureSkipsWinner: on a warm cache every costing is a
// hit, so the first relational mapping of a search is the one that
// materializes the first iteration's winner. A fault there — error or
// panic — must be recorded as one "materialize" failure, the winner
// dropped for the next-cheapest improving candidate, and the search
// must carry on to the fault-free winner instead of stopping as
// converged or letting the panic escape.
func TestMaterializeFailureSkipsWinner(t *testing.T) {
	baseline, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), Options{
		Strategy: GreedySO, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, panicMode := range []bool{false, true} {
		t.Run(fmt.Sprintf("panic=%v", panicMode), func(t *testing.T) {
			cache := NewCostCache(0)
			opts := Options{Strategy: GreedySO, Workers: 1, Cache: cache}
			if _, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), opts); err != nil {
				t.Fatal(err)
			}
			restore := faults.Enable(faults.SiteMap, 1, panicMode)
			defer restore()
			var res *Result
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("materialization panic escaped the search: %v", r)
					}
				}()
				res, err = GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), opts)
			}()
			if err != nil {
				t.Fatalf("search with a failing materialization returned error: %v", err)
			}
			if hits := faults.Hits(faults.SiteMap); hits != 1 {
				t.Fatalf("failpoint fired %d times, want 1", hits)
			}
			if res.Report.Failed != 1 {
				t.Fatalf("report.Failed = %d, want 1 (errors %v)", res.Report.Failed, res.Report.Errors)
			}
			if ce := res.Report.Errors[0]; ce.Stage != "materialize" || ce.Panic != panicMode {
				t.Fatalf("candidate error does not describe the materialization fault: %+v", ce)
			}
			if res.Report.Stop != StopConverged || len(res.Trace) == 0 {
				t.Fatalf("stop = %s after %d iterations", res.Report.Stop, len(res.Trace))
			}
			if got, want := finalSignature(res), finalSignature(baseline); got != want {
				t.Fatalf("search diverged from the fault-free winner:\n got %s\nwant %s", got, want)
			}
		})
	}
}
