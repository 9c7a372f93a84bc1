package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"legodb/internal/imdb"
	"legodb/internal/optimizer"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
)

func testKey(i int) CacheKey {
	var fp xschema.Fingerprint
	fp[0] = byte(i)
	fp[1] = byte(i >> 8)
	fp[2] = byte(i >> 16)
	return CacheKey{Schema: fp, Workload: 1, Model: 2}
}

func TestCostCacheGetPut(t *testing.T) {
	c := NewCostCache(0)
	k := testKey(7)
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k, 42.5)
	cost, ok := c.Get(k)
	if !ok || cost != 42.5 {
		t.Fatalf("Get = %v, %v; want 42.5, true", cost, ok)
	}
	// Put of an existing key keeps the first value (costs are
	// deterministic, so a second Put can only carry the same cost).
	c.Put(k, 42.5)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCostCacheNilSafe(t *testing.T) {
	var c *CostCache
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(testKey(1), 1)
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

func TestCostCacheEvictsOldestFirst(t *testing.T) {
	// Capacity 16 → one entry per shard; each shard evicts its previous
	// occupant as soon as a second key lands there.
	c := NewCostCache(cacheShards)
	const n = 10 * cacheShards
	for i := 0; i < n; i++ {
		c.Put(testKey(i), float64(i))
	}
	st := c.Stats()
	if st.Entries > cacheShards {
		t.Fatalf("entries = %d, want ≤ %d", st.Entries, cacheShards)
	}
	if st.Evictions != uint64(n-st.Entries) {
		t.Fatalf("evictions = %d, want %d", st.Evictions, n-st.Entries)
	}
	// Whatever survived must be the newest key of its shard: re-inserting
	// all keys oldest-first and checking that early keys are gone.
	if _, ok := c.Get(testKey(0)); ok {
		t.Fatal("oldest key survived a full wrap of its shard")
	}
	if _, ok := c.Get(testKey(n - 1)); !ok {
		t.Fatal("newest key was evicted")
	}
}

func TestCostCacheConcurrent(t *testing.T) {
	// Hammer one small cache from many goroutines; run under -race this
	// verifies the sharded locking. Values are a function of the key, so
	// any hit must return the writer's value.
	c := NewCostCache(1 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := testKey((g*2000 + i) % 500)
				want := float64((g*2000 + i) % 500)
				if cost, ok := c.Get(k); ok && cost != want {
					panic(fmt.Sprintf("key %v: got %v want %v", k, cost, want))
				}
				c.Put(k, want)
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 8*2000 {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*2000)
	}
}

func TestWorkloadIDSeparatesWorkloads(t *testing.T) {
	lookup := WorkloadID(imdb.LookupWorkload(), 1)
	publish := WorkloadID(imdb.PublishWorkload(), 1)
	if lookup == publish {
		t.Fatal("lookup and publish workloads digest identically")
	}
	if lookup != WorkloadID(imdb.LookupWorkload(), 1) {
		t.Fatal("WorkloadID not stable across constructions")
	}
	if lookup == WorkloadID(imdb.LookupWorkload(), 2) {
		t.Fatal("root count ignored by WorkloadID")
	}
	// Weights matter: scaling one entry's weight changes the digest.
	w := imdb.LookupWorkload()
	w.Entries[0].Weight *= 2
	if WorkloadID(w, 1) == lookup {
		t.Fatal("entry weight ignored by WorkloadID")
	}
	// Updates matter.
	u := imdb.LookupWorkload()
	u.AddUpdate(xquery.MustParseUpdate("INSERT imdb/show"), 3)
	if WorkloadID(u, 1) == lookup {
		t.Fatal("updates ignored by WorkloadID")
	}
}

func TestModelIDNilMeansDefault(t *testing.T) {
	d := optimizer.DefaultModel()
	if ModelID(nil) != ModelID(&d) {
		t.Fatal("nil model digests differently from DefaultModel")
	}
	tweaked := optimizer.DefaultModel()
	tweaked.SeekCost *= 2
	if ModelID(&tweaked) == ModelID(nil) {
		t.Fatal("model fields ignored by ModelID")
	}
}

// TestCacheHitsAcrossEvaluators: two evaluators sharing one cache agree,
// and the second run is answered from memory.
func TestCacheHitsAcrossEvaluators(t *testing.T) {
	cache := NewCostCache(0)
	ps, err := InitialSchema(imdb.AnnotatedSchema(), GreedySO)
	if err != nil {
		t.Fatal(err)
	}
	e1 := &Evaluator{Workload: imdb.LookupWorkload(), RootCount: 1, Cache: cache}
	cfg1, hit1, err := e1.EvaluateCached(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 {
		t.Fatal("first evaluation hit an empty cache")
	}
	if cfg1.Catalog == nil {
		t.Fatal("miss did not return a full configuration")
	}
	e2 := &Evaluator{Workload: imdb.LookupWorkload(), RootCount: 1, Cache: cache}
	cfg2, hit2, err := e2.EvaluateCached(context.Background(), ps.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Fatal("identical schema+workload missed the shared cache")
	}
	if cfg2.Cost != cfg1.Cost {
		t.Fatalf("cached cost %v != evaluated cost %v", cfg2.Cost, cfg1.Cost)
	}
	if cfg2.Catalog != nil {
		t.Fatal("cache hit claimed to carry a catalog")
	}
	if e2.Evals() != 0 {
		t.Fatalf("hit ran %d full evaluations", e2.Evals())
	}
	// Materialize completes the hit and must reproduce the cost exactly.
	full, err := e2.Materialize(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if full.Cost != cfg1.Cost || full.Catalog == nil {
		t.Fatalf("materialized cost %v (catalog %v), want %v", full.Cost, full.Catalog != nil, cfg1.Cost)
	}
	if full.Catalog.SQL() != cfg1.Catalog.SQL() {
		t.Fatal("materialized catalog differs from directly evaluated catalog")
	}
}

// TestCacheKeySeparatesWorkloadsEndToEnd: the same schema under two
// workloads must never cross-hit.
func TestCacheKeySeparatesWorkloadsEndToEnd(t *testing.T) {
	cache := NewCostCache(0)
	ps, err := InitialSchema(imdb.AnnotatedSchema(), GreedySO)
	if err != nil {
		t.Fatal(err)
	}
	a := &Evaluator{Workload: imdb.LookupWorkload(), RootCount: 1, Cache: cache}
	b := &Evaluator{Workload: imdb.PublishWorkload(), RootCount: 1, Cache: cache}
	ca, _, err := a.EvaluateCached(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	cb, hit, err := b.EvaluateCached(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("different workload hit the other workload's entry")
	}
	if ca.Cost == cb.Cost {
		t.Logf("note: lookup and publish cost the same on the initial schema (%v)", ca.Cost)
	}
}

// TestShardDistributionMixesFullFingerprint regresses the one-byte shard
// index: keys whose fingerprints agree on the first word (as whole key
// families can at registry scale) must still spread across every shard,
// because shardFor folds all fingerprint words into the index.
func TestShardDistributionMixesFullFingerprint(t *testing.T) {
	const n = 1 << 12
	occupancy := make(map[uint64]int)
	for i := 0; i < n; i++ {
		var fp xschema.Fingerprint
		// First word fixed; only the second word varies (hashed so the
		// bytes are uniform, as real FNV fingerprint output is).
		h := uint64(i) * 0x9E3779B97F4A7C15
		h ^= h >> 32
		for b := 0; b < 8; b++ {
			fp[8+b] = byte(h >> (8 * b))
		}
		occupancy[shardIndex(CacheKey{Schema: fp, Workload: 1, Model: 2})]++
	}
	if len(occupancy) != cacheShards {
		t.Fatalf("keys varying only past Schema[0] reached %d of %d shards", len(occupancy), cacheShards)
	}
	mean := n / cacheShards
	for shard, got := range occupancy {
		if got > 2*mean || got < mean/2 {
			t.Fatalf("shard %d holds %d of %d keys (mean %d): occupancy unbalanced", shard, got, n, mean)
		}
	}
}

// TestShardIndexDeterministic: shard placement is a pure function of the
// key (no per-cache seed), preserving deterministic per-shard FIFO
// eviction and save/load round trips.
func TestShardIndexDeterministic(t *testing.T) {
	for i := 0; i < 256; i++ {
		k := testKey(i)
		if a, b := shardIndex(k), shardIndex(k); a != b {
			t.Fatalf("key %d sharded to %d then %d", i, a, b)
		}
		if shardIndex(k) >= cacheShards {
			t.Fatalf("shard index out of range for key %d", i)
		}
	}
}
