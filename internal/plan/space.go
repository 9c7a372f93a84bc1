package plan

import (
	"fmt"
	"sync"

	"legodb/internal/faults"
	"legodb/internal/optimizer"
	"legodb/internal/sqlast"
)

// Key identifies one memoized block costing: 128 bits over the block's
// positional shape, the content digests of its referenced tables, the
// scan state projected onto those tables, and the cost model. Everything
// the optimizer's block costing reads is a function of the key, so the
// memoized outcome replays bit-identically.
type Key struct {
	Hi, Lo uint64
}

// Outcome is one memoized block costing: the block's best-plan cost and
// the scan-state entries the chosen plan added (table names and
// "hash:"-prefixed shared hash builds). Both are deterministic functions
// of the Key, so concurrent writers racing on one key store equal values.
type Outcome struct {
	Cost float64
	Adds []string
}

// StoreStats is a point-in-time snapshot of a Store's counters.
type StoreStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// Sub returns the counter deltas since an earlier snapshot.
func (s StoreStats) Sub(prev StoreStats) StoreStats {
	return StoreStats{
		Hits:      s.Hits - prev.Hits,
		Misses:    s.Misses - prev.Misses,
		Evictions: s.Evictions - prev.Evictions,
		Entries:   s.Entries,
	}
}

// DefaultStoreCap bounds a Store that was not given an explicit capacity.
const DefaultStoreCap = 1 << 16

// Store is a bounded, thread-safe memo of block costings, shared by every
// Space of a search (and, through core.CostCache, across searches over
// the same statistics). The zero value is ready to use with the default
// capacity. Eviction is FIFO; like the configuration cost cache, entries
// are pure functions of their key, so losing one costs recomputation, never
// correctness — and snapshots (CostCache.Save) deliberately exclude it.
type Store struct {
	mu        sync.Mutex
	entries   map[Key]Outcome
	order     []Key
	capacity  int
	hits      uint64
	misses    uint64
	evictions uint64
}

// NewStore returns a store bounded to capacity entries (0 means
// DefaultStoreCap).
func NewStore(capacity int) *Store {
	return &Store{capacity: capacity}
}

func (s *Store) cap() int {
	if s.capacity > 0 {
		return s.capacity
	}
	return DefaultStoreCap
}

func (s *Store) get(k Key) (Outcome, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out, ok := s.entries[k]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return out, ok
}

func (s *Store) put(k Key, out Outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries == nil {
		s.entries = make(map[Key]Outcome)
	}
	if _, ok := s.entries[k]; ok {
		s.entries[k] = out
		return
	}
	for len(s.entries) >= s.cap() {
		victim := s.order[0]
		s.order = s.order[1:]
		delete(s.entries, victim)
		s.evictions++
	}
	s.entries[k] = out
	s.order = append(s.order, k)
}

// Stats snapshots the store's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Hits: s.hits, Misses: s.misses, Evictions: s.evictions, Entries: len(s.entries)}
}

// Space composes query costs for one configuration evaluation from
// shared block costings. Translated queries flow in through QueryCost;
// every block is interned under its positional shape, structurally
// identical blocks across queries and union branches dedup, and each
// distinct (shape, table digests, scan context) is costed once via
// optimizer.BlockCostShared — within this evaluation and, through the
// shared Store, across sibling candidates whose tables did not change.
//
// Interning is copy-free: the Space records the caller's *sqlast.Block
// instance, never a clone. The contract is that blocks are immutable
// once handed to QueryCost — the translator builds each block exactly
// once and nothing downstream writes to it. Mutating a block after
// costing cannot corrupt the memo (Store entries are keyed by an
// immutable shape string captured at intern time), it only makes the
// intern table's view of that one Space stale; the mutated block would
// simply re-intern under its new shape on the next request. The
// plan-package tests pin both properties.
//
// A Space is not safe for concurrent use; each evaluation owns one. The
// Store it feeds is safe to share across Spaces.
type Space struct {
	opt     *optimizer.Optimizer
	store   *Store
	modelID uint64

	// Requested counts block costings asked for; Computed counts those
	// that missed every memo and ran the optimizer. Requested − Computed
	// is the work the plan layer absorbed.
	Requested uint64
	Computed  uint64

	blocks map[string]*sqlast.Block

	// Per-Space scratch, reused across blockCost calls so the hot hit
	// path (shape encoding, table-name collection, scan threading)
	// allocates nothing, and a miss snapshots its tables' scan state
	// without a map.
	keyBuf []byte
	names  []string
	scan   map[string]bool
	before []bool
}

// NewSpace returns a plan space costing against opt, memoizing into
// store (nil for a private store). modelID must digest opt.Model (see
// core.ModelID); it scopes memo entries to the cost model.
func NewSpace(opt *optimizer.Optimizer, modelID uint64, store *Store) *Space {
	if store == nil {
		store = NewStore(0)
	}
	return &Space{opt: opt, store: store, modelID: modelID, blocks: make(map[string]*sqlast.Block)}
}

// Distinct returns the number of structurally distinct blocks interned so
// far (alias-invariant; the dedup denominator for sharing ratios).
func (sp *Space) Distinct() int { return len(sp.blocks) }

// Interned returns the canonical instance interned for the block's
// shape, or nil. The instance is the first block costed with that shape
// (interning is copy-free; see the Space doc for the immutability
// contract).
func (sp *Space) Interned(b *sqlast.Block) *sqlast.Block {
	return sp.blocks[b.ShapeKey()]
}

// QueryCost composes the query's cost from shared block costings,
// threading the same cross-block scan-sharing state optimizer.QueryCost
// threads: bit-identical to it, block memo aside. The query's blocks
// must not be mutated afterwards (they are interned without copying).
func (sp *Space) QueryCost(q *sqlast.Query) (float64, error) {
	if err := faults.Inject(faults.SiteQueryCost); err != nil {
		return 0, err
	}
	total := 0.0
	if sp.scan == nil {
		sp.scan = make(map[string]bool, 8)
	}
	scanned := sp.scan
	clear(scanned)
	for _, b := range q.Blocks {
		cost, err := sp.blockCost(b, scanned)
		if err != nil {
			return 0, fmt.Errorf("plan: %s: %w", q.Name, err)
		}
		total += cost
	}
	return total, nil
}

// blockCost returns the block's cost in the given scan context, from the
// memo when possible. On a hit the memoized plan's scan-state additions
// replay into scanned; on a miss the optimizer runs against scanned
// directly and the (cost, additions) pair is stored. Blocks whose tables
// are unknown to the catalog are costed directly (the optimizer reports
// the error; there is no digest to key on).
func (sp *Space) blockCost(b *sqlast.Block, scanned map[string]bool) (float64, error) {
	sp.Requested++
	sp.keyBuf = b.AppendShapeKey(sp.keyBuf[:0])
	shape := sp.keyBuf
	// Copy-free intern: record the first instance seen per shape. The
	// string(shape) map index is allocation-free on lookup; the key
	// string is materialized only on first insert.
	if _, ok := sp.blocks[string(shape)]; !ok {
		sp.blocks[string(shape)] = b
	}
	names := sp.blockTableNames(b)
	key, keyable := sp.keyFor(shape, names, scanned)
	if keyable {
		if out, hit := sp.store.get(key); hit {
			for _, add := range out.Adds {
				scanned[add] = true
			}
			return out.Cost, nil
		}
	}
	// before holds, per table name, whether the table was scanned and
	// whether its hash build existed ahead of this block.
	before := sp.before[:0]
	if keyable {
		for _, n := range names {
			before = append(before, scanned[n], scanned["hash:"+n])
		}
		sp.before = before
	}
	est, err := sp.opt.BlockCostShared(b, scanned)
	if err != nil {
		return 0, err
	}
	sp.Computed++
	if keyable {
		var adds []string
		for i, n := range names {
			if scanned[n] && !before[2*i] {
				adds = append(adds, n)
			}
			if h := "hash:" + n; scanned[h] && !before[2*i+1] {
				adds = append(adds, h)
			}
		}
		sp.store.put(key, Outcome{Cost: est.Cost, Adds: adds})
	}
	return est.Cost, nil
}

// keyFor builds the memo key for costing a block of this shape in the
// given scan context. The scan state enters only through the entries for
// the block's own tables (the only ones block costing reads), so two
// queries whose earlier blocks scanned different unrelated tables still
// share. Returns keyable=false when a referenced table is not in the
// catalog.
func (sp *Space) keyFor(shape []byte, names []string, scanned map[string]bool) (Key, bool) {
	h := newHash2()
	h.u64(sp.modelID)
	h.bytes(shape)
	for _, n := range names {
		t := sp.opt.Cat.Table(n)
		if t == nil {
			return Key{}, false
		}
		h.str(n)
		h.u64(t.Digest)
		h.bit(scanned[n])
		h.bit(scanned["hash:"+n])
	}
	return h.key(), true
}

// blockTableNames returns the block's distinct table names, sorted,
// into the Space's reusable scratch slice (valid until the next call).
// Blocks reference a handful of tables, so the quadratic dedup and
// insertion sort beat a map and sort.Strings without allocating.
func (sp *Space) blockTableNames(b *sqlast.Block) []string {
	names := sp.names[:0]
	for i := range b.Tables {
		name := b.Tables[i].Table
		dup := false
		for _, n := range names {
			if n == name {
				dup = true
				break
			}
		}
		if !dup {
			names = append(names, name)
		}
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	sp.names = names
	return names
}

// hash2 folds key material into two independently-seeded FNV-64a streams;
// the pair forms the 128-bit memo key.
type hash2 struct {
	a, b uint64
}

func newHash2() hash2 {
	return hash2{a: fnvOffset64, b: fnvOffset64 ^ 0x9e3779b97f4a7c15}
}

func (h *hash2) byte(v byte) {
	h.a = (h.a ^ uint64(v)) * fnvPrime64
	h.b = (h.b ^ uint64(v)) * fnvPrime64
}

func (h *hash2) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(0xff)
}

func (h *hash2) bytes(p []byte) {
	for _, c := range p {
		h.byte(c)
	}
	h.byte(0xff)
}

func (h *hash2) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v))
		v >>= 8
	}
}

func (h *hash2) bit(v bool) {
	if v {
		h.byte(1)
	} else {
		h.byte(0)
	}
}

func (h hash2) key() Key { return Key{Hi: h.a, Lo: h.b} }
