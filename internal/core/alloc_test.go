package core

import (
	"context"
	"testing"

	"legodb/internal/imdb"
	"legodb/internal/xschema"
)

// Allocation budgets for the search hot path. Every AllocsPerRun budget
// here is an upper bound CI enforces (the robustness job runs these
// without -race): a regression that re-introduces per-hit allocations
// on the cache or hashing fast paths fails the build instead of
// silently eating the incremental savings. Budgets are per-operation
// averages over AllocsPerRun's internal loop.
func assertAllocs(t *testing.T, what string, budget float64, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets only hold without the race detector")
	}
	if got := testing.AllocsPerRun(200, f); got > budget {
		t.Errorf("%s: %.1f allocs/op, budget %.1f", what, got, budget)
	}
}

// TestAllocsCostCacheHit: the configuration cost cache's hit path must
// not allocate — it runs once per candidate per iteration on every
// worker.
func TestAllocsCostCacheHit(t *testing.T) {
	c := NewCostCache(0)
	key := CacheKey{Workload: 42, Model: 7}
	key.Schema[0] = 1
	c.Put(key, 123.5)
	assertAllocs(t, "CostCache.Get hit", 0, func() {
		if _, ok := c.Get(key); !ok {
			t.Fatal("expected a hit")
		}
	})
}

// TestAllocsQueryStoreSnapshot: reading a complete Config's stored
// per-slot records (which replaced the per-query store the test is
// named for) must not allocate. A base evaluated under RootCount 1 is
// checked slot by slot against the catalog of RootCount 2, where every
// table differs, so each check walks its record to the first miss —
// the path every candidate evaluation takes for a slot it recomputes.
func TestAllocsQueryStoreSnapshot(t *testing.T) {
	ctx := context.Background()
	ps, err := InitialSchema(annotatedIMDB(t), GreedySO)
	if err != nil {
		t.Fatal(err)
	}
	w := imdb.LookupWorkload()
	base, err := (&Evaluator{Workload: w, RootCount: 1}).Evaluate(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	other, err := (&Evaluator{Workload: w, RootCount: 2}).Evaluate(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.slots) == 0 {
		t.Fatal("base recorded no slots")
	}
	assertAllocs(t, "slot records snapshot", 0, func() {
		for i := range base.slots {
			if base.slots[i].reusable(ps, other.Catalog) {
				t.Fatalf("slot %d reusable although every table changed", i)
			}
		}
	})
}

// TestAllocsDepKeyChain: checking a slot's recorded dependency chain
// against a configuration must not allocate — it runs once per workload
// slot per candidate evaluation. Checked on the hit path, where the
// whole chain is walked.
func TestAllocsDepKeyChain(t *testing.T) {
	ps, err := InitialSchema(annotatedIMDB(t), GreedySO)
	if err != nil {
		t.Fatal(err)
	}
	e := &Evaluator{Workload: imdb.LookupWorkload(), RootCount: 1}
	base, err := e.Evaluate(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	rec := &base.slots[0]
	if len(rec.deps) == 0 {
		t.Fatal("slot recorded no dependencies")
	}
	assertAllocs(t, "slotRecord.reusable", 0, func() {
		if !rec.reusable(ps, base.Catalog) {
			t.Fatal("a slot must be reusable in its own configuration")
		}
	})
}

// TestAllocsFingerprints bounds the schema hashing the per-candidate
// path pays: the canonical fingerprint allocates only its order scratch
// (slice and two maps), the shallow digests reuse a caller map, and the
// name-sensitive digest allocates nothing.
func TestAllocsFingerprints(t *testing.T) {
	ps, err := InitialSchema(annotatedIMDB(t), GreedySO)
	if err != nil {
		t.Fatal(err)
	}
	assertAllocs(t, "Schema.Fingerprint", 8, func() { ps.Fingerprint() })
	assertAllocs(t, "Schema.NamedDigest", 0, func() { ps.NamedDigest() })
	scratch := make(map[string]xschema.Fingerprint, len(ps.Types))
	assertAllocs(t, "Schema.TypeDigestsInto", 0, func() { ps.TypeDigestsInto(scratch) })
}

// TestAllocsEvaluateCachedHit bounds the warm EvaluateCached path: a
// repeated candidate costs one fingerprint (the cache key) plus the
// cache probe, nothing else.
func TestAllocsEvaluateCachedHit(t *testing.T) {
	ps, err := InitialSchema(annotatedIMDB(t), GreedySO)
	if err != nil {
		t.Fatal(err)
	}
	e := &Evaluator{Workload: imdb.LookupWorkload(), RootCount: 1, Cache: NewCostCache(0)}
	ctx := context.Background()
	if _, _, err := e.EvaluateCached(ctx, ps); err != nil {
		t.Fatal(err)
	}
	assertAllocs(t, "EvaluateCached hit", 10, func() {
		if _, hit, err := e.EvaluateCached(ctx, ps); err != nil || !hit {
			t.Fatalf("expected a hit, err=%v", err)
		}
	})
}
