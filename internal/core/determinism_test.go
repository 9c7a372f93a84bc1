package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"legodb/internal/imdb"
	"legodb/internal/xquery"
)

// resultSignature renders everything observable about a search outcome —
// per-iteration costs and applied transformation names, the final cost,
// the chosen physical schema and its relational DDL — into one string, so
// runs can be compared byte for byte. Cache counters and timings are
// deliberately excluded: they are allowed to vary with scheduling, the
// outcome is not.
func resultSignature(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "initial %x\n", res.InitialCost)
	for i, it := range res.Trace {
		fmt.Fprintf(&b, "iter %d cost %x applied %s candidates %d\n", i, it.Cost, it.Applied, it.Candidates)
	}
	fmt.Fprintf(&b, "best %x\n", res.Best.Cost)
	b.WriteString(res.Best.Schema.String())
	b.WriteString("\n")
	b.WriteString(res.Best.Catalog.SQL())
	return b.String()
}

type searchVariant struct {
	name    string
	workers int
}

func determinismVariants() []searchVariant {
	return []searchVariant{
		{"workers1", 1},
		{"workers8", 8},
	}
}

func variantOptions(v searchVariant, strategy Strategy) Options {
	return Options{Strategy: strategy, Workers: v.workers, Cache: NewCostCache(0)} // fresh cache per run
}

// TestGreedyDeterministicAcrossWorkersAndCache: greedy search must pick
// the same transformations, costs and DDL whether candidates are costed
// sequentially or by 8 workers, each on a fresh cache (the agreement
// with memo-free evaluation is TestSearchMatchesReference).
func TestGreedyDeterministicAcrossWorkersAndCache(t *testing.T) {
	for _, strategy := range []Strategy{GreedySO, GreedySI} {
		for _, wl := range []struct {
			name string
			w    *xquery.Workload
		}{
			{"lookup", imdb.LookupWorkload()},
			{"publish", imdb.PublishWorkload()},
		} {
			var want string
			var wantName string
			for _, v := range determinismVariants() {
				res, err := GreedySearch(context.Background(), imdb.Schema(), wl.w, imdb.Stats(), variantOptions(v, strategy))
				if err != nil {
					t.Fatalf("%v/%s/%s: %v", strategy, wl.name, v.name, err)
				}
				sig := resultSignature(res)
				if want == "" {
					want, wantName = sig, v.name
					continue
				}
				if sig != want {
					t.Errorf("%v/%s: variant %s diverged from %s:\n--- %s\n%s\n--- %s\n%s",
						strategy, wl.name, v.name, wantName, wantName, want, v.name, sig)
				}
			}
		}
	}
}

// TestBeamDeterministicAcrossWorkersAndCache mirrors the greedy test for
// the beam search at width 3.
func TestBeamDeterministicAcrossWorkersAndCache(t *testing.T) {
	var want, wantName string
	for _, v := range determinismVariants() {
		res, err := BeamSearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), BeamOptions{
			Options: variantOptions(v, GreedySO),
			Width:   3,
		})
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		sig := resultSignature(res)
		if want == "" {
			want, wantName = sig, v.name
			continue
		}
		if sig != want {
			t.Errorf("beam variant %s diverged from %s:\n--- %s\n%s\n--- %s\n%s",
				v.name, wantName, wantName, want, v.name, sig)
		}
	}
}

// TestDeterministicAcrossWorkerSweep is the worker-scaling determinism
// gate: with every reuse layer on — incremental evaluation, the
// logical-plan sharing layer and a registry-attached shared cache —
// greedy and beam searches must produce byte-identical traces, winners
// and DDL at 1, 2, 4, 8 and 16 workers. This is what licenses the
// worker-scaling benchmark scenario: throughput may scale with the
// pool, the outcome may not.
func TestDeterministicAcrossWorkerSweep(t *testing.T) {
	reg := NewCacheRegistry(0)
	opts := func(workers int) Options {
		return Options{Strategy: GreedySO, Workers: workers, Cache: reg.Attach()}
	}
	var wantG, wantB string
	for _, workers := range []int{1, 2, 4, 8, 16} {
		res, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), opts(workers))
		if err != nil {
			t.Fatalf("greedy workers=%d: %v", workers, err)
		}
		if sig := resultSignature(res); wantG == "" {
			wantG = sig
		} else if sig != wantG {
			t.Errorf("greedy workers=%d diverged from workers=1:\n--- workers=1\n%s\n--- workers=%d\n%s",
				workers, wantG, workers, sig)
		}
		bres, err := BeamSearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), BeamOptions{
			Options: opts(workers), Width: 3,
		})
		if err != nil {
			t.Fatalf("beam workers=%d: %v", workers, err)
		}
		if sig := resultSignature(bres); wantB == "" {
			wantB = sig
		} else if sig != wantB {
			t.Errorf("beam workers=%d diverged from workers=1:\n--- workers=1\n%s\n--- workers=%d\n%s",
				workers, wantB, workers, sig)
		}
	}
}

// TestWarmCacheSameOutcomeFewerEvals: rerunning a search against an
// already-populated shared cache must reproduce the result exactly while
// paying far fewer full evaluator runs.
func TestWarmCacheSameOutcomeFewerEvals(t *testing.T) {
	shared := NewCostCache(0)
	run := func() *Result {
		res, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), Options{
			Strategy: GreedySO, Cache: shared,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run()
	warm := run()
	if resultSignature(cold) != resultSignature(warm) {
		t.Fatalf("warm rerun diverged:\ncold:\n%s\nwarm:\n%s", resultSignature(cold), resultSignature(warm))
	}
	if cold.Cache.Hits >= cold.Cache.Misses {
		t.Logf("cold run already hit-heavy: %+v (schemas revisited within the run)", cold.Cache)
	}
	if warm.Cache.Misses != 0 {
		t.Fatalf("warm run missed the cache %d times", warm.Cache.Misses)
	}
	// Warm run still materializes the winner of each improving iteration
	// plus the final best, but no more than that.
	maxEvals := uint64(len(warm.Trace) + 1)
	if warm.Evals > maxEvals {
		t.Fatalf("warm run paid %d full evaluations, want ≤ %d", warm.Evals, maxEvals)
	}
	if warm.Evals >= cold.Evals {
		t.Fatalf("warm run (%d evals) not cheaper than cold (%d)", warm.Evals, cold.Evals)
	}
}

// TestCacheSharedAcrossStrategiesIsSafe: greedy-so, greedy-si and beam
// sharing one cache must each match their private-cache outcome — the
// key includes the workload digest, so cross-strategy reuse can change
// only how many evaluations are paid, never which configuration wins.
func TestCacheSharedAcrossStrategiesIsSafe(t *testing.T) {
	shared := NewCostCache(0)
	for _, strategy := range []Strategy{GreedySO, GreedySI} {
		private, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), Options{Strategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		viaShared, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), Options{Strategy: strategy, Cache: shared})
		if err != nil {
			t.Fatal(err)
		}
		if resultSignature(private) != resultSignature(viaShared) {
			t.Errorf("%v via shared cache diverged from private-cache run", strategy)
		}
	}
}

// TestDeterminismWithUpdatesAndStats exercises the digesting of updates
// and document counts: a workload with updates searched twice (cache on,
// different worker counts) must agree.
func TestDeterminismWithUpdatesAndStats(t *testing.T) {
	makeWorkload := func() *xquery.Workload {
		w := imdb.LookupWorkload()
		w.AddUpdate(xquery.MustParseUpdate("INSERT imdb/show"), 10)
		return w
	}
	var want string
	for _, workers := range []int{1, 8} {
		res, err := GreedySearch(context.Background(), imdb.Schema(), makeWorkload(), imdb.Stats(), Options{
			Strategy: GreedySO, Workers: workers, RootCount: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		sig := resultSignature(res)
		if want == "" {
			want = sig
		} else if sig != want {
			t.Fatal("update workload search not deterministic across worker counts")
		}
	}
}
