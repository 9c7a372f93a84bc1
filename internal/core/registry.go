package core

import (
	"io"
	"sync/atomic"
)

// CacheRegistry shares one cost-cache family across every engine of a
// process. A multi-tenant XML-to-relational service holds one engine per
// tenant schema; near-identical tenants search overlapping configuration
// spaces, and without sharing each engine re-pays every costing the
// fleet has already performed. Engines attached to a registry search
// through a single CostCache — the configuration-cost memo plus the
// per-block store riding inside it — keyed by the same
// (schema fingerprint, workload digest, model digest) CacheKey as
// engine-private caches, so identical candidates across tenants hit for
// free and entries can never be confused between tenants whose schemas,
// workloads or cost models differ.
//
// Concurrency: the registry and its cache are safe for concurrent use by
// any number of engines. Concurrent evaluations of the same key are
// deduplicated singleflight-style inside EvaluateCached — one engine
// runs the pipeline, the others block on its outcome (CacheStats.Dedups
// counts the adoptions).
//
// Capacity: the capacity passed to NewCacheRegistry is a global budget
// over all attached engines; when a shard fills, its oldest entries are
// evicted first (deterministic FIFO — shard placement and insertion
// order are pure functions of the keys, so repeated fleet runs evict
// identically).
type CacheRegistry struct {
	cache   *CostCache
	engines atomic.Int64
}

// NewCacheRegistry returns a registry whose shared cache is bounded to
// roughly capacity entries across all attached engines (0 selects the
// CostCache default of 64k entries).
func NewCacheRegistry(capacity int) *CacheRegistry {
	return &CacheRegistry{cache: NewCostCache(capacity)}
}

// Cache returns the registry's shared cost cache. A nil registry returns
// a nil cache (valid, never hits).
func (r *CacheRegistry) Cache() *CostCache {
	if r == nil {
		return nil
	}
	return r.cache
}

// Attach registers one engine with the registry and returns the shared
// cache it should evaluate through. Attaching is cheap — the counter
// feeds Stats().Engines — and engines never detach: the registry's
// lifetime is the process's.
func (r *CacheRegistry) Attach() *CostCache {
	if r == nil {
		return nil
	}
	r.engines.Add(1)
	return r.cache
}

// RegistryStats is the fleet-wide observability view: how many engines
// share the cache, and the aggregated hit/miss/dedup/eviction counters
// across all of them (per-engine deltas live in each search's
// Result.Cache and SearchReport.Cache).
type RegistryStats struct {
	Engines int
	Cache   CacheStats
}

// Stats snapshots the registry's fleet-wide counters.
func (r *CacheRegistry) Stats() RegistryStats {
	if r == nil {
		return RegistryStats{}
	}
	return RegistryStats{
		Engines: int(r.engines.Load()),
		Cache:   r.cache.Stats(),
	}
}

// Save writes the registry's shared cache to w in the framed snapshot
// format (magic, version, entry count, payload length, CRC32 — see
// CostCache.Save): one snapshot warms a whole fleet.
func (r *CacheRegistry) Save(w io.Writer) error {
	return r.Cache().Save(w)
}

// Load merges a snapshot written by Save (or by any CostCache.Save) into
// the registry's shared cache, returning the number of entries added.
// Corrupt snapshots are rejected with ErrCorruptSnapshot before anything
// merges.
func (r *CacheRegistry) Load(rd io.Reader) (int, error) {
	if r == nil {
		return 0, nil
	}
	return r.cache.Load(rd)
}

// SaveSnapshotFile writes the shared cache to a snapshot file atomically
// (temp file + rename).
func (r *CacheRegistry) SaveSnapshotFile(path string) error {
	return r.Cache().SaveSnapshotFile(path)
}

// LoadSnapshotFile merges a snapshot file into the shared cache with the
// lenient warm-start semantics of CostCache.LoadSnapshotFile: a missing
// file loads nothing, a corrupt one is quarantined to path+".corrupt"
// and reported in the warning, and the fleet continues cold.
func (r *CacheRegistry) LoadSnapshotFile(path string) (n int, warning string, err error) {
	if r == nil {
		return 0, "", nil
	}
	return r.cache.LoadSnapshotFile(path)
}
