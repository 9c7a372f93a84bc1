package engine

import (
	"hash/maphash"
	"strconv"
	"strings"

	"legodb/internal/sqlast"
)

// BatchSize is the number of rows an operator processes per chunk. 1024
// keeps a chunk's gathered column (8 KB of int64s plus a 128-byte null
// bitmap) comfortably inside L1/L2 while amortizing per-chunk overhead
// over enough rows that the per-row cost is the loop body, not the
// bookkeeping.
const BatchSize = 1024

// Vector is one gathered column chunk: typed storage (int64 or string,
// the kind of the column it was gathered from, see columnKind) with a
// null bitmap. Element j of a Vector corresponds to element j of the
// selection it was gathered through.
type Vector struct {
	kind  ValueKind
	ints  []int64
	strs  []string
	nulls []uint64 // bitmap, bit set = NULL
}

// reset empties the vector for n elements of one kind.
func (v *Vector) reset(n int, kind ValueKind) {
	v.kind = kind
	v.nulls = resize(v.nulls, (n+63)/64)
	if kind == IntValue {
		v.ints = resize(v.ints, n)
	} else {
		v.strs = resize(v.strs, n)
	}
}

// resize returns s cleared to length n, reusing its storage when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (v *Vector) isNull(j int) bool { return v.nulls[j>>6]&(1<<(j&63)) != 0 }

func (v *Vector) set(j int, val Value) {
	switch val.Kind {
	case NullValue:
		v.nulls[j>>6] |= 1 << (j & 63)
	case IntValue:
		v.ints[j] = val.Int
	default:
		v.strs[j] = val.Str
	}
}

// gather fills the vector with column ci of t's rows at the given
// positions. Base positions read the columnar chunks directly — typed
// storage to typed storage — and heap positions the tail's column slice:
// no Row in between either way.
func (v *Vector) gather(t *Table, ci int, positions []int32) {
	v.reset(len(positions), t.kind(ci))
	heap := t.heap[ci]
	if t.base == nil {
		for j, pos := range positions {
			v.set(j, heap[pos])
		}
		return
	}
	col := t.base.cols[ci]
	br := t.baseN
	for j, pos := range positions {
		p := int(pos)
		if p >= br {
			v.set(j, heap[p-br])
			continue
		}
		ch := &col[p/BatchSize]
		i := p % BatchSize
		switch {
		case ch.IsNull(i):
			v.nulls[j>>6] |= 1 << (j & 63)
		case ch.Ints != nil:
			v.ints[j] = ch.Ints[i]
		case ch.Strs != nil:
			v.strs[j] = ch.Strs[i]
		default:
			v.nulls[j>>6] |= 1 << (j & 63)
		}
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// castCmp compares the decimal string of n with s, without allocating:
// the cast that compares an INT column with a string column.
func castCmp(n int64, s string) int {
	var buf [20]byte
	b := strconv.AppendInt(buf[:0], n, 10)
	for i := 0; i < min(len(b), len(s)); i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	return len(b) - len(s)
}

// compareAs orders two non-NULL cells of two columns: by value when the
// columns have one kind (cast false), and as decimal strings, the integer
// cast, when one is an INT column and the other a string column.
func compareAs(a, b Value, cast bool) int {
	switch {
	case !cast:
		return Compare(a, b)
	case a.Kind == IntValue:
		return castCmp(a.Int, b.Str)
	default:
		return -castCmp(b.Int, a.Str)
	}
}

// convert returns a literal or parameter in the kind of the column it is
// compared with: an integer as its decimal string, a string as the integer
// it spells, surrounding space allowed. A string that spells none becomes
// NULL, which matches nothing under any operator.
func convert(v Value, kind ValueKind) Value {
	switch {
	case v.Kind == kind || v.Kind == NullValue:
		return v
	case kind == StrValue:
		return StrVal(strconv.FormatInt(v.Int, 10))
	}
	n, err := strconv.ParseInt(strings.TrimSpace(v.Str), 10, 64)
	if err != nil {
		return Null
	}
	return IntVal(n)
}

// compactLiteral keeps sel[j] iff vector element j satisfies (op lit),
// compacting sel in place. lit has the vector's kind (see convert), or is
// NULL and keeps nothing.
func compactLiteral(v *Vector, op sqlast.CmpOp, lit Value, sel []int32) []int32 {
	w := 0
	switch lit.Kind {
	case IntValue:
		for j := range sel {
			if !v.isNull(j) && opHolds(op, cmpInt(v.ints[j], lit.Int)) {
				sel[w] = sel[j]
				w++
			}
		}
	case StrValue:
		for j := range sel {
			if !v.isNull(j) && opHolds(op, strings.Compare(v.strs[j], lit.Str)) {
				sel[w] = sel[j]
				w++
			}
		}
	}
	return sel[:w]
}

// compactPair keeps sel[j] iff elements j of l and r, both non-NULL,
// satisfy (l op r), compacting sel in place. The vectors' kinds are their
// columns', so the loop is chosen once and every chunk of a block runs the
// same one: by value for one kind, through the integer's decimal string
// (castCmp) for two.
func compactPair(l, r *Vector, op sqlast.CmpOp, sel []int32) []int32 {
	w := 0
	keep := func(j, c int) {
		if opHolds(op, c) {
			sel[w] = sel[j]
			w++
		}
	}
	both := func(j int) bool { return !l.isNull(j) && !r.isNull(j) }
	switch {
	case l.kind == IntValue && r.kind == IntValue:
		for j := range sel {
			if both(j) {
				keep(j, cmpInt(l.ints[j], r.ints[j]))
			}
		}
	case l.kind == r.kind:
		for j := range sel {
			if both(j) {
				keep(j, strings.Compare(l.strs[j], r.strs[j]))
			}
		}
	case l.kind == IntValue:
		for j := range sel {
			if both(j) {
				keep(j, castCmp(l.ints[j], r.strs[j]))
			}
		}
	default:
		for j := range sel {
			if both(j) {
				keep(j, -castCmp(r.ints[j], l.strs[j]))
			}
		}
	}
	return sel[:w]
}

// keyCol is one column of a join key over the tuples of one side of a
// hash step: tuple j's cell is column ci of t at position at[j].
type keyCol struct {
	t  *Table
	ci int
	at []int32
}

// joinKey is what a hash step matches on. Part 0 is the join edge's
// column; the rest are the equality cross filters the step makes
// applicable, fused into the key. Every part is an equality between two
// columns of one kind (see joinEdge), so it matches by value, and NULL
// matches nothing in any part.
type joinKey []keyCol

// primary returns tuple j's join-edge cell.
func (k joinKey) primary(j int32) Value { return k[0].t.Cell(int(k[0].at[j]), k[0].ci) }

// loneInt reports whether the key is an INT join edge alone, whose
// cells are their own hashes (see hashes).
func (k joinKey) loneInt() bool { return len(k) == 1 && k[0].t.kind(k[0].ci) == IntValue }

// keySeed seeds the string hashes of join keys; a hash decides only
// which entries a probe compares, never a result or its order.
var keySeed = maphash.MakeSeed()

// strHash is the key hash of a string. Tables store it beside every
// string cell when the cell is written (see Table.keyCell), so only a
// cell's writer calls it.
func strHash(s string) uint64 { return maphash.String(keySeed, s) }

// mix64 is MurmurHash3's 64-bit finalizer, a bijection that spreads
// every input bit over the output.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// hashes writes the key hashes of tuples lo..hi-1 into out[:hi-lo] and
// returns that slice. A tuple with a NULL part, which can match nothing,
// hashes to 0; every other key to a non-zero hash, equal for equal keys:
// an integer part is its own hash (a lone edge's 0 shares 1 with 1), and
// a string part hashes as the table stored it.
func (k joinKey) hashes(lo, hi int, out []uint64) []uint64 {
	out = out[:hi-lo]
	t, ci := k[0].t, k[0].ci
	for j, pos := range k[0].at[lo:hi] {
		h, ok := cellHash(t.keyCell(int(pos), ci))
		if ok && len(k) > 1 {
			h, ok = k.fuse(h, lo+j)
		}
		switch {
		case !ok:
			h = 0
		case h == 0:
			h = 1
		}
		out[j] = h
	}
	return out
}

// cellHash hashes a key part's cell, given its stored hash sh when it is
// a string; ok is false for NULL.
func cellHash(v Value, sh uint64) (uint64, bool) {
	switch v.Kind {
	case IntValue:
		return uint64(v.Int), true
	case StrValue:
		return sh, true
	}
	return 0, false
}

// fuse folds the fused parts of tuple j's key into the join edge's hash;
// ok is false when one is NULL.
func (k joinKey) fuse(h uint64, j int) (uint64, bool) {
	for _, c := range k[1:] {
		part, ok := cellHash(c.t.keyCell(int(c.at[j]), c.ci))
		if !ok {
			return 0, false
		}
		h = mix64(h*0x9e3779b97f4a7c15 + part)
	}
	return h, true
}

// hashTable is a hash-join build over the tuples of one side, keyed on
// their joinKey hashes; entry j stands for tuple j. A power-of-two
// directory holds, per bucket, the first entry of the bucket's chain and
// next[j] the one after entry j, both stored +1 so that 0 ends a chain;
// each entry keeps its hash. Chains are in ascending entry order, and
// first/after skip the entries of other hashes that share the bucket, so
// the entries a probe walks are exactly those of its hash, ascending —
// three allocations whatever the number of distinct keys. Tuples with a
// NULL key part are left out. A hash may be shared by keys that merely
// collide, so probes compare join-edge cells (see exact); a fused part
// that collided is rejected by the cross filter it came from, which the
// step still applies.
type hashTable struct {
	dir   []int32
	next  []int32
	hash  []uint64
	shift uint // 64 - log2(len(dir))
	ints  bool // the key is an INT edge alone (see joinKey.loneInt)
}

// buildHash builds the table over the first n tuples of a key in mem,
// hashing them a chunk at a time through buf (at least BatchSize long).
func buildHash(k joinKey, n int, buf []uint64, mem *arena) *hashTable {
	bits := 1
	for 1<<bits < 2*n {
		bits++
	}
	ht := &hashTable{
		dir:   mem.i32.take(1 << bits),
		next:  mem.i32.take(n),
		hash:  mem.u64.take(n),
		shift: uint(64 - bits),
		ints:  k.loneInt(),
	}
	clear(ht.dir)
	// Last chunk to first, each last tuple to first, so that pushing on
	// the bucket's head leaves chains ascending.
	for base := (n - 1) / BatchSize * BatchSize; n > 0 && base >= 0; base -= BatchSize {
		hs := k.hashes(base, min(base+BatchSize, n), buf)
		for j := len(hs) - 1; j >= 0; j-- {
			if h := hs[j]; h != 0 {
				b := ht.bucket(h)
				ht.hash[base+j] = h
				ht.next[base+j], ht.dir[b] = ht.dir[b], int32(base+j+1)
			}
		}
	}
	return ht
}

// bucket is h's directory slot: Fibonacci hashing, so that the lone
// integers that hash to themselves spread over the directory whatever
// their stride.
func (ht *hashTable) bucket(h uint64) uint64 { return h * 0x9e3779b97f4a7c15 >> ht.shift }

// first returns the first entry (+1) whose key hashes to h, 0 if none —
// always for 0, the hash of a key with a NULL part, which no entry has;
// after walks on from there.
func (ht *hashTable) first(h uint64) int32 {
	i := ht.dir[ht.bucket(h)]
	for i != 0 && ht.hash[i-1] != h {
		i = ht.next[i-1]
	}
	return i
}

// after returns the entry (+1) after entry i-1 whose key hashes to h, 0
// if none.
func (ht *hashTable) after(i int32, h uint64) int32 {
	for i = ht.next[i-1]; i != 0 && ht.hash[i-1] != h; i = ht.next[i-1] {
	}
	return i
}

// exact reports whether an entry found under hash h equals the probe key
// without comparing cells: the key is an INT edge alone, on the probe
// side as on the build side, and h is no hash two integers share.
func (ht *hashTable) exact(h uint64) bool { return ht.ints && h != 1 }
