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

// mixedKind marks a Vector whose non-null values span more than one
// ValueKind; such vectors fall back to boxed Values.
const mixedKind ValueKind = -1

// Vector is one gathered column chunk: typed storage (int64 or string)
// with a null bitmap, promoted to boxed Values only if a column turns
// out to mix kinds (the shredder stores homogeneous columns, so the
// typed paths are the ones that run in practice). Element j of a Vector
// corresponds to element j of the selection it was gathered through.
type Vector struct {
	kind  ValueKind // NullValue until a non-null value is seen
	n     int
	ints  []int64
	strs  []string
	vals  []Value  // mixedKind fallback, sparse (nulls stay zero)
	nulls []uint64 // bitmap, bit set = NULL
}

func (v *Vector) reset(n int) {
	v.kind = NullValue
	v.n = n
	nw := (n + 63) / 64
	if cap(v.nulls) < nw {
		v.nulls = make([]uint64, nw)
	} else {
		v.nulls = v.nulls[:nw]
		clear(v.nulls)
	}
}

func (v *Vector) isNull(j int) bool { return v.nulls[j>>6]&(1<<(j&63)) != 0 }

func (v *Vector) set(j int, val Value) {
	if val.Kind == NullValue {
		v.nulls[j>>6] |= 1 << (j & 63)
		return
	}
	if v.kind == NullValue {
		v.kind = val.Kind
		switch val.Kind {
		case IntValue:
			if cap(v.ints) < v.n {
				v.ints = make([]int64, v.n)
			} else {
				v.ints = v.ints[:v.n]
				clear(v.ints)
			}
		case StrValue:
			if cap(v.strs) < v.n {
				v.strs = make([]string, v.n)
			} else {
				v.strs = v.strs[:v.n]
				clear(v.strs)
			}
		}
	}
	switch v.kind {
	case mixedKind:
		v.vals[j] = val
	case val.Kind:
		if v.kind == IntValue {
			v.ints[j] = val.Int
		} else {
			v.strs[j] = val.Str
		}
	default:
		v.promote()
		v.vals[j] = val
	}
}

// promote reboxes typed storage as Values when a mixed-kind column
// appears (possible only through direct Table.Insert; shredded data is
// homogeneous per column).
func (v *Vector) promote() {
	if cap(v.vals) < v.n {
		v.vals = make([]Value, v.n)
	} else {
		v.vals = v.vals[:v.n]
		clear(v.vals)
	}
	for j := 0; j < v.n; j++ {
		if v.isNull(j) {
			continue
		}
		if v.kind == IntValue {
			v.vals[j] = IntVal(v.ints[j])
		} else {
			v.vals[j] = StrVal(v.strs[j])
		}
	}
	v.kind = mixedKind
}

// value reboxes element j.
func (v *Vector) value(j int) Value {
	if v.isNull(j) {
		return Null
	}
	switch v.kind {
	case IntValue:
		return IntVal(v.ints[j])
	case StrValue:
		return StrVal(v.strs[j])
	case mixedKind:
		return v.vals[j]
	default:
		return Null
	}
}

// gather fills the vector with column ci of t's rows at the given
// positions. Base positions read the columnar chunks directly — typed
// storage to typed storage — and heap positions the tail's column slice:
// no Row in between either way.
func (v *Vector) gather(t *Table, ci int, positions []int32) {
	v.reset(len(positions))
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
			v.set(j, Value{Kind: IntValue, Int: ch.Ints[i]})
		case ch.Strs != nil:
			v.set(j, Value{Kind: StrValue, Str: ch.Strs[i]})
		case ch.Vals != nil:
			v.set(j, ch.Vals[i])
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

// cmpBytesStr compares a byte slice against a string without allocating
// (the formatted-integer side of a mixed int/string comparison).
func cmpBytesStr(b []byte, s string) int {
	n := min(len(b), len(s))
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	return len(b) - len(s)
}

// compactLiteral keeps sel[j] iff vector element j satisfies (op lit),
// compacting sel in place. The typed cases run tight loops over the
// unboxed storage; only genuinely mixed columns fall back to boxed
// satisfies.
func compactLiteral(v *Vector, op sqlast.CmpOp, lit Value, sel []int32) []int32 {
	w := 0
	switch {
	case lit.Kind == NullValue:
		// NULL satisfies nothing.
	case v.kind == IntValue && lit.Kind == IntValue:
		for j := range sel {
			if !v.isNull(j) && opHolds(op, cmpInt(v.ints[j], lit.Int)) {
				sel[w] = sel[j]
				w++
			}
		}
	case v.kind == IntValue && lit.Kind == StrValue:
		var buf [20]byte
		for j := range sel {
			if v.isNull(j) {
				continue
			}
			b := strconv.AppendInt(buf[:0], v.ints[j], 10)
			if opHolds(op, cmpBytesStr(b, lit.Str)) {
				sel[w] = sel[j]
				w++
			}
		}
	case v.kind == StrValue:
		s := lit.Str
		if lit.Kind == IntValue {
			s = lit.String()
		}
		for j := range sel {
			if !v.isNull(j) && opHolds(op, strings.Compare(v.strs[j], s)) {
				sel[w] = sel[j]
				w++
			}
		}
	default:
		// All-null or mixed-kind column.
		for j := range sel {
			if satisfies(v.value(j), op, lit) {
				sel[w] = sel[j]
				w++
			}
		}
	}
	return sel[:w]
}

// pairSatisfies evaluates element j of two aligned vectors under op with
// satisfies semantics (NULL never matches, integers coerce to strings
// against string values).
func pairSatisfies(l, r *Vector, j int, op sqlast.CmpOp) bool {
	if l.isNull(j) || r.isNull(j) {
		return false
	}
	switch {
	case l.kind == IntValue && r.kind == IntValue:
		return opHolds(op, cmpInt(l.ints[j], r.ints[j]))
	case l.kind == StrValue && r.kind == StrValue:
		return opHolds(op, strings.Compare(l.strs[j], r.strs[j]))
	case l.kind == IntValue && r.kind == StrValue:
		var buf [20]byte
		return opHolds(op, cmpBytesStr(strconv.AppendInt(buf[:0], l.ints[j], 10), r.strs[j]))
	case l.kind == StrValue && r.kind == IntValue:
		var buf [20]byte
		return opHolds(op, -cmpBytesStr(strconv.AppendInt(buf[:0], r.ints[j], 10), l.strs[j]))
	default:
		return satisfies(l.value(j), op, r.value(j))
	}
}

// compactPair keeps sel[j] iff pairSatisfies(l, r, j, op), compacting
// sel in place.
func compactPair(l, r *Vector, op sqlast.CmpOp, sel []int32) []int32 {
	w := 0
	for j := range sel {
		if pairSatisfies(l, r, j, op) {
			sel[w] = sel[j]
			w++
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
// column, matched by exact kind as a declared join is (a string never
// meets an integer). The rest are the equality
// cross filters the step makes applicable, fused into the key and
// matched as satisfies compares: an integer meets the string of its
// decimal form. NULL matches nothing in any part.
type joinKey []keyCol

// primary returns tuple j's join-edge cell.
func (k joinKey) primary(j int32) Value { return k[0].t.Cell(int(k[0].at[j]), k[0].ci) }

// keySeed seeds the string hashes of join keys; a hash decides only
// which entries a probe compares, never a result or its order.
var keySeed = maphash.MakeSeed()

// strHash is the key hash of a string. Tables store it beside every
// string cell when the cell is written (see Table.keyCell), so only a
// cell's writer calls it; a fused integer part hashes its decimal text
// under the same seed.
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
// the join edge's integer is its own hash (but 0 shares 1 with 1), a
// string part hashes as the table stored it, and a fused integer hashes
// as the string of its decimal form, so it meets that string as
// satisfies lets it. ints reports that every key is a lone integer, so
// equal hashes other than 1 mean equal keys.
func (k joinKey) hashes(lo, hi int, out []uint64) (hs []uint64, ints bool) {
	out = out[:hi-lo]
	t, ci, fused := k[0].t, k[0].ci, len(k) > 1
	ints = !fused
	for j, pos := range k[0].at[lo:hi] {
		v, sh := t.keyCell(int(pos), ci)
		ints = ints && v.Kind != StrValue
		h, ok := edgeHash(v, sh)
		if ok && fused {
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
	return out, ints
}

// edgeHash hashes a join edge's cell, given its stored hash sh when it
// is a string; ok is false for NULL.
func edgeHash(v Value, sh uint64) (uint64, bool) {
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
	var buf [20]byte
	for _, c := range k[1:] {
		v, part := c.t.keyCell(int(c.at[j]), c.ci)
		switch v.Kind {
		case NullValue:
			return 0, false
		case IntValue:
			part = maphash.Bytes(keySeed, strconv.AppendInt(buf[:0], v.Int, 10))
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
	ints  bool // every key built is a lone integer (see joinKey.hashes)
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
		ints:  true,
	}
	clear(ht.dir)
	// Last chunk to first, each last tuple to first, so that pushing on
	// the bucket's head leaves chains ascending.
	for base := (n - 1) / BatchSize * BatchSize; n > 0 && base >= 0; base -= BatchSize {
		hs, ints := k.hashes(base, min(base+BatchSize, n), buf)
		ht.ints = ht.ints && ints
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

// exact reports whether an entry found under hash h equals a probe key
// of lone integers (ints, from joinKey.hashes) without comparing cells:
// both sides hold lone integers, and h is no hash two integers share.
func (ht *hashTable) exact(h uint64, ints bool) bool { return ht.ints && ints && h != 1 }
