package engine

import (
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
// storage to typed storage, no Row in between; heap positions read the
// row tail as before.
func (v *Vector) gather(t *Table, ci int, positions []int32) {
	v.reset(len(positions))
	if t.base == nil {
		rows := t.Rows
		for j, pos := range positions {
			v.set(j, rows[pos][ci])
		}
		return
	}
	col := t.base.cols[ci]
	br := t.base.rows
	for j, pos := range positions {
		p := int(pos)
		if p >= br {
			v.set(j, t.Rows[p-br][ci])
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

// hashTable is a typed hash-join build over one column of a table at a
// list of row positions; entry j stands for positions[j]. Entries with
// equal keys form a chain in ascending entry order: a head map (int64 or
// string keys) holds the first entry of each key and next[j] the one
// after entry j, both stored +1 so that 0 ends a chain. A build is thus
// two allocations whatever the number of distinct keys. NULL keys are
// left out — NULL equals nothing, itself included — and matching is
// exact-kind (a string probe never matches an integer key), as in the
// reference executor's map[Value]. A build column mixing kinds falls
// back to a boxed Value head map.
type hashTable struct {
	kind  ValueKind // NullValue until a non-null key is seen
	ints  map[int64]int32
	strs  map[string]int32
	mixed map[Value]int32
	next  []int32
}

// buildHash builds the table over column ci of t at the given positions.
func buildHash(t *Table, ci int, positions []int32) *hashTable {
	ht := &hashTable{next: make([]int32, len(positions))}
	// Last to first, so that pushing on the head leaves chains ascending.
	for j := len(positions) - 1; j >= 0; j-- {
		v := t.Cell(int(positions[j]), ci)
		if v.Kind == NullValue {
			continue
		}
		if ht.kind != v.Kind && ht.kind != mixedKind {
			switch {
			case ht.kind != NullValue:
				ht.demote()
			case v.Kind == IntValue:
				ht.kind, ht.ints = IntValue, make(map[int64]int32, j+1)
			default:
				ht.kind, ht.strs = StrValue, make(map[string]int32, j+1)
			}
		}
		switch ht.kind {
		case IntValue:
			ht.next[j], ht.ints[v.Int] = ht.ints[v.Int], int32(j+1)
		case StrValue:
			ht.next[j], ht.strs[v.Str] = ht.strs[v.Str], int32(j+1)
		case mixedKind:
			ht.next[j], ht.mixed[v] = ht.mixed[v], int32(j+1)
		}
	}
	return ht
}

// demote reboxes a typed head map into a Value map when the build column
// mixes kinds; the chains stay as they are.
func (ht *hashTable) demote() {
	ht.mixed = make(map[Value]int32, len(ht.ints)+len(ht.strs))
	for k, h := range ht.ints {
		ht.mixed[IntVal(k)] = h
	}
	for k, h := range ht.strs {
		ht.mixed[StrVal(k)] = h
	}
	ht.ints, ht.strs = nil, nil
	ht.kind = mixedKind
}

// first returns the first entry (+1) whose key equals v, 0 if none; the
// rest of the chain follows through next.
func (ht *hashTable) first(v Value) int32 {
	switch {
	case ht.kind == mixedKind:
		return ht.mixed[v]
	case ht.kind != v.Kind:
		return 0
	case v.Kind == IntValue:
		return ht.ints[v.Int]
	default:
		return ht.strs[v.Str]
	}
}
