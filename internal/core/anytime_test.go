package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"legodb/internal/faults"
	"legodb/internal/imdb"
	"legodb/internal/pschema"
)

// TestCancelMidSearchReturnsBestSoFar: cancelling the context while a
// Workers:8 search is in flight must return the best configuration
// found so far (not an error), report the cancellation, and leave no
// worker goroutines behind. The initial cost is pre-warmed into the
// cache so the cancellation always lands in candidate evaluation, never
// in the (pre-anytime) initial one. The cancel fires from a costing
// fault hook after a fixed number of optimizer calls — a deterministic
// mid-iteration point, where the old wall-clock timer raced the search
// on fast or slow machines.
func TestCancelMidSearchReturnsBestSoFar(t *testing.T) {
	wkld := imdb.LookupWorkload()
	cache := NewCostCache(0)
	warmInitialCost(t, GreedySO, wkld, cache)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var costings atomic.Int64
	restore := faults.EnableHook(faults.SiteQueryCost, -1, func() {
		if costings.Add(1) == 20 {
			cancel()
		}
	})
	defer restore()
	res, err := GreedySearch(ctx, imdb.Schema(), wkld, imdb.Stats(), Options{
		Strategy: GreedySO, Workers: 8, Cache: cache,
	})
	if err != nil {
		t.Fatalf("cancelled search returned error instead of best-so-far: %v", err)
	}
	if res.Report.Stop != StopCancelled {
		t.Fatalf("stop = %s, want %s", res.Report.Stop, StopCancelled)
	}
	if !res.Report.Stop.Interrupted() {
		t.Fatal("StopCancelled must report Interrupted")
	}
	if res.Best.Schema == nil || res.Best.Catalog == nil {
		t.Fatal("best-so-far configuration is incomplete")
	}
	if err := pschema.Check(res.Best.Schema); err != nil {
		t.Fatalf("best-so-far schema not physical: %v", err)
	}
	if res.Best.Cost > res.InitialCost {
		t.Fatalf("best-so-far cost %.1f worse than initial %.1f", res.Best.Cost, res.InitialCost)
	}
	// The worker pool must drain: no goroutine leak once the search
	// returns (settle loop tolerates scheduler lag).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutine leak after cancelled search: %d before, %d after", before, g)
	}
}

// TestBudgetIsAnytimeAndMonotone: Options.Budget bounds the candidate
// evaluations (anytime stop, not an error), and with Workers:1 —
// deterministic evaluation order, so a smaller budget's evaluations are
// a prefix of a larger one's — the final cost is monotone non-increasing
// in the budget.
func TestBudgetIsAnytimeAndMonotone(t *testing.T) {
	budgets := []int{4, 16, 64, 256}
	prev := -1.0
	for i, b := range budgets {
		res, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), Options{
			Strategy: GreedySO, Workers: 1, Budget: b,
		})
		if err != nil {
			t.Fatalf("budget %d: %v", b, err)
		}
		if res.Report.Evaluated > int64(b) {
			t.Fatalf("budget %d: evaluated %d candidates", b, res.Report.Evaluated)
		}
		if res.Report.Stop != StopBudget && res.Report.Stop != StopConverged {
			t.Fatalf("budget %d: stop = %s", b, res.Report.Stop)
		}
		if err := pschema.Check(res.Best.Schema); err != nil {
			t.Fatalf("budget %d: best schema not physical: %v", b, err)
		}
		if i == 0 && res.Report.Stop != StopBudget {
			t.Fatalf("budget %d did not interrupt the search (stop = %s)", b, res.Report.Stop)
		}
		if i > 0 && res.Best.Cost > prev {
			t.Fatalf("cost not monotone in budget: %.4f at budget %d, %.4f at budget %d",
				prev, budgets[i-1], res.Best.Cost, b)
		}
		prev = res.Best.Cost
	}
}

// TestDeadlineStopsSearch: Options.Deadline bounds the wall clock and
// reports StopDeadline with a usable best-so-far. Every costing blocks
// on a gate a timer opens well after the deadline, so the deadline is
// guaranteed to be what stops the search — without the old approach of
// amplifying the workload until candidate evaluation happened to
// outlast the deadline on the machine at hand.
func TestDeadlineStopsSearch(t *testing.T) {
	wkld := imdb.LookupWorkload()
	cache := NewCostCache(0)
	warmInitialCost(t, GreedySO, wkld, cache)
	release := make(chan struct{})
	gate := time.AfterFunc(250*time.Millisecond, func() { close(release) })
	defer gate.Stop()
	restore := faults.EnableHook(faults.SiteQueryCost, -1, func() { <-release })
	defer restore()
	res, err := GreedySearch(context.Background(), imdb.Schema(), wkld, imdb.Stats(), Options{
		Strategy: GreedySO, Workers: 4, Deadline: 50 * time.Millisecond,
		Cache: cache,
	})
	if err != nil {
		t.Fatalf("deadline-bounded search returned error instead of best-so-far: %v", err)
	}
	if res.Report.Stop != StopDeadline {
		t.Fatalf("stop = %s, want %s", res.Report.Stop, StopDeadline)
	}
	if res.Report.Elapsed > 10*time.Second {
		t.Fatalf("deadline did not bound the search: elapsed %s", res.Report.Elapsed)
	}
	if err := pschema.Check(res.Best.Schema); err != nil {
		t.Fatalf("best-so-far schema not physical: %v", err)
	}
}

// TestExpiredContextBeforeInitialEvaluationIsError: with no best-so-far
// to fall back on, a context dead on arrival is a genuine error.
func TestExpiredContextBeforeInitialEvaluationIsError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := GreedySearch(ctx, imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), Options{
		Strategy: GreedySO,
	})
	if err == nil {
		t.Fatal("search with a pre-cancelled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
}

// TestBeamSearchBudgetIsAnytime: the beam search honors the same budget
// machinery as the greedy loop.
func TestBeamSearchBudgetIsAnytime(t *testing.T) {
	res, err := BeamSearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), BeamOptions{
		Options: Options{Strategy: GreedySO, Workers: 2, Budget: 8},
		Width:   2,
	})
	if err != nil {
		t.Fatalf("budget-bounded beam search returned error: %v", err)
	}
	if res.Report.Evaluated > 8 {
		t.Fatalf("evaluated %d candidates over budget 8", res.Report.Evaluated)
	}
	if res.Report.Stop != StopBudget {
		t.Fatalf("stop = %s, want %s", res.Report.Stop, StopBudget)
	}
	if err := pschema.Check(res.Best.Schema); err != nil {
		t.Fatalf("best-so-far schema not physical: %v", err)
	}
}
