package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"legodb/internal/faults"
	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/xschema"
)

func registryTestSchema(t *testing.T) *xschema.Schema {
	t.Helper()
	ps, err := pschema.AllInlined(imdb.AnnotatedSchema())
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestSingleflightExactlyOneEvaluation is the dedup contract: M
// evaluators (M tenant engines in miniature) concurrently costing the
// same key through one shared cache perform exactly one full pipeline
// run between them; everyone else adopts the leader's outcome (a dedup)
// or hits the entry it stored (a hit).
func TestSingleflightExactlyOneEvaluation(t *testing.T) {
	const M = 8
	ps := registryTestSchema(t)
	reg := NewCacheRegistry(0)
	start := reg.Stats().Cache

	evals := make([]*Evaluator, M)
	costs := make([]float64, M)
	var barrier, done sync.WaitGroup
	barrier.Add(1)
	for i := 0; i < M; i++ {
		evals[i] = &Evaluator{Workload: imdb.LookupWorkload(), RootCount: 1, Cache: reg.Attach()}
		done.Add(1)
		go func(i int) {
			defer done.Done()
			barrier.Wait()
			cfg, _, err := evals[i].EvaluateCached(context.Background(), ps)
			if err != nil {
				t.Errorf("evaluator %d: %v", i, err)
				return
			}
			costs[i] = cfg.Cost
		}(i)
	}
	barrier.Done()
	done.Wait()

	var total uint64
	for _, e := range evals {
		total += e.Evals()
	}
	if total != 1 {
		t.Fatalf("M=%d concurrent identical evaluations ran %d pipelines, want exactly 1", M, total)
	}
	for i := 1; i < M; i++ {
		if costs[i] != costs[0] {
			t.Fatalf("evaluator %d adopted cost %g, leader computed %g", i, costs[i], costs[0])
		}
	}
	st := reg.Stats()
	if st.Engines != M {
		t.Fatalf("Engines = %d, want %d", st.Engines, M)
	}
	delta := st.Cache.Sub(start)
	if delta.Hits+delta.Dedups != M-1 {
		t.Fatalf("hits %d + dedups %d != %d non-leaders (stats %+v)", delta.Hits, delta.Dedups, M-1, delta)
	}
}

// TestSingleflightLeaderErrorReleasesWaiters: a leader whose pipeline
// fails must wake its waiters and let them evaluate independently — the
// error may be private to the leader (here a one-shot injected fault) —
// and nothing may deadlock.
func TestSingleflightLeaderErrorReleasesWaiters(t *testing.T) {
	ps := registryTestSchema(t)
	cache := NewCostCache(0)
	restore := faults.Enable(faults.SiteMap, 1, false)
	defer restore()

	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		e := &Evaluator{Workload: imdb.LookupWorkload(), RootCount: 1, Cache: cache}
		wg.Add(1)
		go func(i int, e *Evaluator) {
			defer wg.Done()
			_, _, err := e.EvaluateCached(context.Background(), ps)
			errs[i] = err
		}(i, e)
	}
	wg.Wait()
	failures := 0
	for _, err := range errs {
		if err != nil {
			failures++
			if !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("unexpected error: %v", err)
			}
		}
	}
	if failures != 1 {
		t.Fatalf("one-shot fault produced %d failures, want exactly 1 (errs=%v)", failures, errs)
	}
}

// TestSingleflightLeaderPanicReleasesWaiters: the deferred finish must
// fire when the leader's evaluation panics out of EvaluateCached, so
// waiters self-evaluate instead of blocking forever.
func TestSingleflightLeaderPanicReleasesWaiters(t *testing.T) {
	ps := registryTestSchema(t)
	cache := NewCostCache(0)
	restore := faults.Enable(faults.SiteMap, 1, true)
	defer restore()

	outcomes := make([]string, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		e := &Evaluator{Workload: imdb.LookupWorkload(), RootCount: 1, Cache: cache}
		wg.Add(1)
		go func(i int, e *Evaluator) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					outcomes[i] = "panic"
				}
			}()
			if _, _, err := e.EvaluateCached(context.Background(), ps); err != nil {
				outcomes[i] = "error"
			} else {
				outcomes[i] = "ok"
			}
		}(i, e)
	}
	wg.Wait()
	panics, oks := 0, 0
	for _, o := range outcomes {
		switch o {
		case "panic":
			panics++
		case "ok":
			oks++
		}
	}
	if panics != 1 || oks != 1 {
		t.Fatalf("outcomes = %v, want exactly one panic and one success", outcomes)
	}
}

// TestSingleflightFlightLifecycle exercises the join/finish primitives:
// a second joiner never leads, finish removes the entry (so the next
// join leads again), and finish publishes cost and error to waiters.
func TestSingleflightFlightLifecycle(t *testing.T) {
	cache := NewCostCache(0)
	key := CacheKey{Workload: 1, Model: 2}
	call, leader := cache.join(key)
	if !leader {
		t.Fatal("expected to lead an empty flight")
	}
	follower, leads := cache.join(key)
	if leads || follower != call {
		t.Fatal("second join must follow the in-flight call")
	}
	select {
	case <-call.done:
		t.Fatal("flight completed before finish")
	default:
	}
	cache.finish(key, call, 42, nil)
	<-follower.done
	if follower.cost != 42 || follower.err != nil {
		t.Fatalf("follower saw (%g, %v), want (42, nil)", follower.cost, follower.err)
	}
	if _, leads := cache.join(key); !leads {
		t.Fatal("finished flight must be re-leadable")
	}
}

// TestRegistrySnapshotRoundTrip: one fleet's registry snapshot warms
// another registry through the framed+CRC format, byte-deterministically.
func TestRegistrySnapshotRoundTrip(t *testing.T) {
	ps := registryTestSchema(t)
	reg := NewCacheRegistry(0)
	e := &Evaluator{Workload: imdb.LookupWorkload(), RootCount: 1, Cache: reg.Attach()}
	if _, _, err := e.EvaluateCached(context.Background(), ps); err != nil {
		t.Fatal(err)
	}

	var snap1, snap2 bytes.Buffer
	if err := reg.Save(&snap1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Save(&snap2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1.Bytes(), snap2.Bytes()) {
		t.Fatal("registry snapshots of identical state differ")
	}

	warm := NewCacheRegistry(0)
	n, err := warm.Load(bytes.NewReader(snap1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != reg.Stats().Cache.Entries {
		t.Fatalf("loaded %d entries, registry held %d", n, reg.Stats().Cache.Entries)
	}
	// A warmed fleet answers the same costing without any pipeline run.
	e2 := &Evaluator{Workload: imdb.LookupWorkload(), RootCount: 1, Cache: warm.Attach()}
	cfg, hit, err := e2.EvaluateCached(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || e2.Evals() != 0 {
		t.Fatalf("warmed registry missed (hit=%v, evals=%d)", hit, e2.Evals())
	}
	if cfg.Cost <= 0 {
		t.Fatalf("cost = %g", cfg.Cost)
	}
}

// TestNilRegistryIsInert: a nil registry hands out nil caches and zero
// stats without panicking.
func TestNilRegistryIsInert(t *testing.T) {
	var r *CacheRegistry
	if r.Cache() != nil || r.Attach() != nil {
		t.Fatal("nil registry returned a cache")
	}
	if st := r.Stats(); st.Engines != 0 || st.Cache.Entries != 0 {
		t.Fatalf("nil registry stats = %+v", st)
	}
	if n, _, err := r.LoadSnapshotFile("/nonexistent"); n != 0 || err != nil {
		t.Fatalf("nil registry load = %d, %v", n, err)
	}
}
