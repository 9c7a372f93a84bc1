package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"legodb/internal/fsio"
	"legodb/internal/optimizer"
	"legodb/internal/plan"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
)

// CacheKey identifies one costed configuration: the canonical fingerprint
// of the p-schema plus digests of the workload (queries, updates, weights,
// root count) and of the optimizer cost model. Costs depend on nothing
// else, so entries are safe to share across search iterations, across the
// greedy/beam strategy variants, and across Advise calls of one engine.
type CacheKey struct {
	Schema   xschema.Fingerprint
	Workload uint64
	Model    uint64
}

// CacheStats is a point-in-time snapshot of cache activity. All counters
// are cumulative; Result carries the delta observed during one search.
type CacheStats struct {
	Hits   uint64
	Misses uint64
	// Dedups counts evaluations that were answered by waiting on a
	// concurrent identical evaluation (singleflight): the waiter adopted
	// the leader's cost instead of paying its own pipeline run. Every
	// dedup was first counted as a miss by Get.
	Dedups    uint64
	Evictions uint64
	Entries   int
}

// Sub returns the counter deltas s minus start (Entries is kept from s).
func (s CacheStats) Sub(start CacheStats) CacheStats {
	return CacheStats{
		Hits:      s.Hits - start.Hits,
		Misses:    s.Misses - start.Misses,
		Dedups:    s.Dedups - start.Dedups,
		Evictions: s.Evictions - start.Evictions,
		Entries:   s.Entries,
	}
}

// Accumulate adds the counter deltas of d into s. Entries is a
// point-in-time snapshot rather than a counter, so s takes d's value.
func (s *CacheStats) Accumulate(d CacheStats) {
	s.Hits += d.Hits
	s.Misses += d.Misses
	s.Dedups += d.Dedups
	s.Evictions += d.Evictions
	s.Entries = d.Entries
}

// HitRatio is the fraction of costings answered from the cache.
func (s CacheStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

const cacheShards = 16

// CostCache memoizes workload costs of evaluated configurations across
// an entire search (and, when shared, across searches). It is sharded
// and safe for concurrent use by the candidate-evaluation worker pool.
// Entries are small (one key and one float64), so the default capacity
// comfortably covers every configuration the IMDB searches visit; when a
// shard fills up, the oldest entries in that shard are evicted first
// (deterministic FIFO, so repeated runs behave identically).
//
// A nil *CostCache is valid and never hits: Get misses, Put is a no-op.
type CostCache struct {
	perShard  int
	hits      atomic.Uint64
	misses    atomic.Uint64
	dedups    atomic.Uint64
	evictions atomic.Uint64
	shards    [cacheShards]costShard
	// blocks memoizes per-block costings for the logical-plan layer so
	// structurally identical SPJ blocks cost once across union branches,
	// queries, sibling candidates and searches sharing this cache (see
	// internal/plan; not persisted by Save).
	blocks plan.Store
}

// BlockStats snapshots the shared block-costing memo's counters.
func (c *CostCache) BlockStats() plan.StoreStats {
	if c == nil {
		return plan.StoreStats{}
	}
	return c.blocks.Stats()
}

type costShard struct {
	mu      sync.Mutex
	entries map[CacheKey]float64
	order   []CacheKey // insertion order, for deterministic eviction
	// flight tracks keys whose evaluation is currently in progress, so a
	// second evaluator arriving at the same key blocks on the first
	// outcome instead of paying its own pipeline run (see
	// Evaluator.EvaluateCached). Entries live only for the duration of
	// one evaluation. Sharded alongside the entries so misses arriving
	// on different shards never contend on one global flight lock.
	flight map[CacheKey]*flightCall
}

// NewCostCache returns a cache bounded to roughly capacity entries
// (0 selects the default of 64k entries, ~2 MB).
func NewCostCache(capacity int) *CostCache {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	perShard := capacity / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &CostCache{perShard: perShard}
	for i := range c.shards {
		c.shards[i].entries = make(map[CacheKey]float64)
	}
	return c
}

// shardIndex mixes the full fingerprint, not just its first byte: the
// fingerprint words are FNV output and individually uniform, but at
// registry scale (many tenants' searches in one cache) whole key
// families can share a first byte, and a one-byte shard index then piles
// them onto a few shards. Folding both 64-bit words plus the workload
// and model digests — with a rotation so the two words don't cancel on
// symmetric inputs, and a downshift so the high bits reach the shard
// index — keeps occupancy balanced. The function is pure in the key, so
// per-shard FIFO eviction remains deterministic.
func shardIndex(k CacheKey) uint64 {
	lo := binary.LittleEndian.Uint64(k.Schema[0:8])
	hi := binary.LittleEndian.Uint64(k.Schema[8:16])
	h := lo ^ (hi<<31 | hi>>33) ^ k.Workload ^ k.Model
	h ^= h >> 32
	h ^= h >> 16
	return h % cacheShards
}

func (c *CostCache) shardFor(k CacheKey) *costShard {
	return &c.shards[shardIndex(k)]
}

// flightCall is one in-flight evaluation: followers block on done, then
// read the leader's outcome.
type flightCall struct {
	done chan struct{}
	cost float64
	err  error
}

// join returns the flight call for a key, creating it when none is in
// progress. The second result is true for the caller that must perform
// the evaluation (the leader) and later publish its outcome via finish;
// false means another evaluator got there first and the caller should
// wait on call.done. join on a nil cache returns a leader call so
// callers degrade to plain evaluation.
func (c *CostCache) join(k CacheKey) (*flightCall, bool) {
	if c == nil {
		return &flightCall{done: make(chan struct{})}, true
	}
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if call, ok := s.flight[k]; ok {
		return call, false
	}
	if s.flight == nil {
		s.flight = make(map[CacheKey]*flightCall)
	}
	call := &flightCall{done: make(chan struct{})}
	s.flight[k] = call
	return call, true
}

// finish publishes a leader's outcome and releases the followers. The
// call is removed from the flight table first, so an evaluator arriving
// after finish starts fresh (normally hitting the entry Put stored just
// before).
func (c *CostCache) finish(k CacheKey, call *flightCall, cost float64, err error) {
	call.cost, call.err = cost, err
	if c != nil {
		s := c.shardFor(k)
		s.mu.Lock()
		if s.flight[k] == call {
			delete(s.flight, k)
		}
		s.mu.Unlock()
	}
	close(call.done)
}

// countDedup records one evaluation answered by an in-flight leader.
func (c *CostCache) countDedup() {
	if c != nil {
		c.dedups.Add(1)
	}
}

// Get returns the memoized cost for the key, counting a hit or miss.
func (c *CostCache) Get(k CacheKey) (float64, bool) {
	if c == nil {
		return 0, false
	}
	s := c.shardFor(k)
	s.mu.Lock()
	cost, ok := s.entries[k]
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return cost, ok
}

// Put memoizes the cost for the key, evicting the shard's oldest entries
// when it is full.
func (c *CostCache) Put(k CacheKey, cost float64) {
	if c == nil {
		return
	}
	s := c.shardFor(k)
	s.mu.Lock()
	if _, exists := s.entries[k]; !exists {
		s.entries[k] = cost
		s.order = append(s.order, k)
		for len(s.entries) > c.perShard {
			oldest := s.order[0]
			s.order = s.order[1:]
			delete(s.entries, oldest)
			c.evictions.Add(1)
		}
	}
	s.mu.Unlock()
}

// cacheSnapshotVersion tags the persisted cache format; Load rejects
// snapshots written by an incompatible version. Version 2 added the
// framed header (magic, entry count, payload length, CRC32) in front of
// the gob payload.
const cacheSnapshotVersion = 2

// snapshotMagic opens every cache snapshot; anything else is corrupt or
// foreign (version 1 snapshots, being raw gob, never start with it).
var snapshotMagic = [8]byte{'L', 'D', 'B', 'C', 'A', 'C', 'H', 'E'}

const (
	// maxSnapshotEntries bounds the declared entry count Load accepts —
	// far above any real search's visit count, low enough that a forged
	// or bit-flipped header cannot drive huge allocations.
	maxSnapshotEntries = 1 << 22
	// maxSnapshotBytes bounds the gob payload Load will read.
	maxSnapshotBytes = 256 << 20
	// snapshotHeaderLen is the framed header size: magic(8) version(2)
	// entries(8) payload length(8) payload CRC32(4).
	snapshotHeaderLen = 30
)

// ErrCorruptSnapshot marks a snapshot Load rejected before merging
// anything: bad magic, wrong version, truncation, an implausible entry
// count or payload size, a checksum mismatch, or a payload that does
// not decode to the declared shape. Callers can errors.Is on it to
// quarantine the file and continue cold (see LoadSnapshotFile).
var ErrCorruptSnapshot = errors.New("core: corrupt cost-cache snapshot")

// cacheEntry is one persisted cache entry.
type cacheEntry struct {
	Key  CacheKey
	Cost float64
}

// cacheSnapshot is the gob-encoded payload of a snapshot.
type cacheSnapshot struct {
	Version int
	Entries []cacheEntry
}

// Save writes the cache's entries to w: a framed header (magic,
// version, entry count, payload length, payload CRC32) followed by the
// gob-encoded entries. Entries are emitted in shard-then-insertion
// order, so saving the same cache twice produces identical bytes. Keys
// are pure digests (no schema or query text), so snapshots leak no
// workload content.
func (c *CostCache) Save(w io.Writer) error {
	snap := cacheSnapshot{Version: cacheSnapshotVersion}
	if c != nil {
		for i := range c.shards {
			s := &c.shards[i]
			s.mu.Lock()
			for _, k := range s.order {
				if cost, ok := s.entries[k]; ok {
					snap.Entries = append(snap.Entries, cacheEntry{Key: k, Cost: cost})
				}
			}
			s.mu.Unlock()
		}
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&snap); err != nil {
		return fmt.Errorf("core: encode cost cache: %w", err)
	}
	var hdr [snapshotHeaderLen]byte
	copy(hdr[:8], snapshotMagic[:])
	binary.LittleEndian.PutUint16(hdr[8:10], cacheSnapshotVersion)
	binary.LittleEndian.PutUint64(hdr[10:18], uint64(len(snap.Entries)))
	binary.LittleEndian.PutUint64(hdr[18:26], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[26:30], fsio.Checksum(payload.Bytes()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("core: write cost cache header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("core: write cost cache payload: %w", err)
	}
	return nil
}

// Load merges a snapshot written by Save into the cache, preserving the
// saved insertion order (so capacity eviction stays deterministic across
// a save/load round trip). Existing entries win over loaded ones. It
// returns the number of entries inserted.
//
// Load validates the header and the payload checksum before decoding —
// a truncated or bit-flipped snapshot is rejected with
// ErrCorruptSnapshot and the merge is a no-op — and bounds both the
// declared entry count and the payload size it will allocate for, so a
// forged header cannot force absurd allocations.
func (c *CostCache) Load(r io.Reader) (int, error) {
	var hdr [snapshotHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: short header: %v", ErrCorruptSnapshot, err)
	}
	if !bytes.Equal(hdr[:8], snapshotMagic[:]) {
		return 0, fmt.Errorf("%w: bad magic", ErrCorruptSnapshot)
	}
	if v := binary.LittleEndian.Uint16(hdr[8:10]); v != cacheSnapshotVersion {
		return 0, fmt.Errorf("%w: snapshot version %d, want %d", ErrCorruptSnapshot, v, cacheSnapshotVersion)
	}
	declared := binary.LittleEndian.Uint64(hdr[10:18])
	payloadLen := binary.LittleEndian.Uint64(hdr[18:26])
	sum := binary.LittleEndian.Uint32(hdr[26:30])
	if declared > maxSnapshotEntries {
		return 0, fmt.Errorf("%w: %d entries exceeds limit %d", ErrCorruptSnapshot, declared, maxSnapshotEntries)
	}
	if payloadLen > maxSnapshotBytes {
		return 0, fmt.Errorf("%w: %d payload bytes exceeds limit %d", ErrCorruptSnapshot, payloadLen, maxSnapshotBytes)
	}
	// Each entry costs at least its fixed fields on the wire; a header
	// declaring far more entries than the payload could hold is forged.
	if declared > 0 && payloadLen/declared < 8 {
		return 0, fmt.Errorf("%w: %d entries implausible for %d payload bytes", ErrCorruptSnapshot, declared, payloadLen)
	}
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, fmt.Errorf("%w: short payload: %v", ErrCorruptSnapshot, err)
	}
	if got := fsio.Checksum(payload); got != sum {
		return 0, fmt.Errorf("%w: checksum mismatch (%08x != %08x)", ErrCorruptSnapshot, got, sum)
	}
	var snap cacheSnapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return 0, fmt.Errorf("%w: decode: %v", ErrCorruptSnapshot, err)
	}
	if snap.Version != cacheSnapshotVersion {
		return 0, fmt.Errorf("%w: payload version %d, want %d", ErrCorruptSnapshot, snap.Version, cacheSnapshotVersion)
	}
	if uint64(len(snap.Entries)) != declared {
		return 0, fmt.Errorf("%w: %d entries decoded, header declared %d", ErrCorruptSnapshot, len(snap.Entries), declared)
	}
	if c == nil {
		return 0, nil
	}
	n := 0
	for _, e := range snap.Entries {
		s := c.shardFor(e.Key)
		s.mu.Lock()
		if _, exists := s.entries[e.Key]; !exists {
			s.entries[e.Key] = e.Cost
			s.order = append(s.order, e.Key)
			n++
			for len(s.entries) > c.perShard {
				oldest := s.order[0]
				s.order = s.order[1:]
				delete(s.entries, oldest)
				c.evictions.Add(1)
			}
		}
		s.mu.Unlock()
	}
	return n, nil
}

// SaveSnapshotFile writes the cache to a snapshot file
// crash-consistently: the sibling temp file is fsynced before the
// rename and the parent directory after it, so a crash leaves either
// the previous complete snapshot or the new one — never a torn image.
func (c *CostCache) SaveSnapshotFile(path string) error {
	if err := fsio.WriteFileAtomic(path, c.Save); err != nil {
		return fmt.Errorf("core: install cache snapshot: %w", err)
	}
	return nil
}

// LoadSnapshotFile merges a snapshot file into the cache with the
// lenient semantics every binary wants from a warm-start file: a
// missing file is fine (n=0), and a corrupt one is renamed aside to
// path+".corrupt" (quarantined, so the next save starts clean and the
// evidence survives) with the cache untouched. The returned warning is
// non-empty when that happened — callers log it and continue cold. Only
// I/O errors reading an existing, well-formed file are returned as err.
func (c *CostCache) LoadSnapshotFile(path string) (n int, warning string, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, "", nil
		}
		return 0, "", fmt.Errorf("core: open cache snapshot: %w", err)
	}
	defer f.Close()
	n, err = c.Load(f)
	if err == nil {
		return n, "", nil
	}
	if !errors.Is(err, ErrCorruptSnapshot) {
		return 0, "", fmt.Errorf("core: load cache snapshot %s: %w", path, err)
	}
	quarantine := path + ".corrupt"
	if renameErr := os.Rename(path, quarantine); renameErr != nil {
		return 0, fmt.Sprintf("cache snapshot %s is corrupt (%v); continuing cold (quarantine failed: %v)", path, err, renameErr), nil
	}
	return 0, fmt.Sprintf("cache snapshot %s is corrupt (%v); quarantined to %s, continuing cold", path, err, quarantine), nil
}

// Stats snapshots the cache counters and current entry count.
func (c *CostCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Dedups:    c.dedups.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.entries)
		s.mu.Unlock()
	}
	return st
}

// WorkloadID digests a workload and root count into a cache-key
// component: query and update texts with their weights. Two workloads
// with the same digest cost every configuration identically.
func WorkloadID(w *xquery.Workload, rootCount float64) uint64 {
	h := fnv.New64a()
	hashFloat(h, rootCount)
	for _, e := range w.Entries {
		io.WriteString(h, "q")
		io.WriteString(h, e.Query.String())
		hashFloat(h, e.Weight)
	}
	for _, u := range w.Updates {
		io.WriteString(h, "u")
		io.WriteString(h, u.Update.String())
		hashFloat(h, u.Weight)
	}
	return h.Sum64()
}

// ModelID digests a cost model into a cache-key component; nil denotes
// the default model and digests identically to it.
func ModelID(m *optimizer.CostModel) uint64 {
	if m == nil {
		d := optimizer.DefaultModel()
		m = &d
	}
	h := fnv.New64a()
	for _, v := range []float64{
		m.PageSize, m.SeekCost, m.PageIOCost, m.RandomIOPenalty,
		m.ProbeCost, m.CPUTupleCost, m.HashCost, m.OutputByteCost,
		m.DefaultEqSelectivity, m.DefaultRangeSelectivity,
		m.WriteByteCost, m.IndexWriteCost,
	} {
		hashFloat(h, v)
	}
	return h.Sum64()
}

func hashFloat(w io.Writer, v float64) {
	var b [8]byte
	bits := math.Float64bits(v)
	for i := range b {
		b[i] = byte(bits >> (8 * i))
	}
	w.Write(b[:])
}
