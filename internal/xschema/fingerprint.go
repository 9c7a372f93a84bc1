package xschema

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/bits"
	"sort"
)

// Fingerprint is a 128-bit canonical structural hash of a schema. Two
// schemas receive the same fingerprint exactly when they are Equivalent:
// same reachable structure and statistics annotations, regardless of how
// the named types are called or in which order they are defined. It is
// the cache key of the search-wide cost memoization (core.CostCache) —
// workload cost depends only on the structure and statistics of a
// p-schema, never on its type names, so alpha-equivalent configurations
// may share one cache entry.
type Fingerprint [16]byte

// String renders the fingerprint as hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// CanonicalOrder returns the named types reachable from the root in
// first-visit preorder: the root first, then referenced types in the
// order their references appear in already-visited bodies. The order
// depends only on the schema's structure — not on definition order or on
// what the types are called — which is what makes the fingerprint
// canonical.
func (s *Schema) CanonicalOrder() []string {
	order := make([]string, 0, len(s.Names))
	seen := make(map[string]bool, len(s.Names))
	var visitName func(name string)
	visitName = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		order = append(order, name)
		t, ok := s.Types[name]
		if !ok {
			return
		}
		Visit(t, func(t Type) {
			if r, ok := t.(*Ref); ok {
				visitName(r.Name)
			}
		})
	}
	visitName(s.Root)
	return order
}

// Fingerprint computes the schema's canonical fingerprint in one pass:
// each reachable named type's body is hashed in canonical order, with Ref
// nodes encoded as canonical indices (name-insensitive) and wildcard
// exclusion lists sorted (order-normalized). Statistics annotations
// (scalar sizes/bounds/distincts/histograms, repetition counts, choice
// fractions) are part of the hash, so equivalent rewrites with different
// statistics remain distinct. Cost is O(size of the reachable schema);
// no intermediate serialization is built (unlike the former
// fingerprint(s) = s.String() approach).
func (s *Schema) Fingerprint() Fingerprint {
	order := s.CanonicalOrder()
	canon := make(map[string]int, len(order))
	for i, n := range order {
		canon[n] = i
	}
	var w hashWriter
	w.h = newFNV128()
	for _, name := range order {
		w.byte('T')
		if t, ok := s.Types[name]; ok {
			w.hashType(t, canon)
		} else {
			// Dangling root/ref in a not-yet-validated schema.
			w.byte('?')
			w.str(name)
		}
	}
	return w.h.sum()
}

// TypeDigests returns a shallow digest for every defined type: the hash
// of the definition body alone, with Ref nodes encoded by target name
// (never followed). A definition's digest changes exactly when its own
// body — structure or statistics annotations — changes; rewriting one
// type leaves every other definition's digest intact. This is the
// invalidation unit of the incremental evaluation pipeline: the
// relational mapper memoizes tables per digest.
// (Subtree digests would be useless there: every query
// examines the root type, so any rewrite anywhere would invalidate
// everything.)
func (s *Schema) TypeDigests() map[string]Fingerprint {
	return s.TypeDigestsInto(make(map[string]Fingerprint, len(s.Types)))
}

// TypeDigestsInto is TypeDigests writing into a caller-provided map
// (cleared first), so per-candidate evaluation loops can recycle one
// map instead of allocating a fresh one per evaluation.
func (s *Schema) TypeDigestsInto(out map[string]Fingerprint) map[string]Fingerprint {
	clear(out)
	for name, t := range s.Types {
		out[name] = typeDigest(t)
	}
	return out
}

// typeDigest hashes one definition body shallowly (Refs by name).
func typeDigest(t Type) Fingerprint {
	var w hashWriter
	w.h = newFNV128()
	// A nil canon map sends every Ref through the by-name ('U') encoding.
	w.hashType(t, nil)
	return w.h.sum()
}

// NamedDigest is the name-sensitive counterpart of Fingerprint: it
// hashes the root name, the definition order and every definition with
// its name (Refs by name). Two schemas with equal NamedDigest render
// byte-identical String() output and map to byte-identical DDL — which
// Fingerprint, being alpha-invariant, deliberately does not guarantee.
// It keys the evaluator's materialized-configuration cache, where the
// cached catalog's table names must match the requesting schema exactly.
func (s *Schema) NamedDigest() Fingerprint {
	var w hashWriter
	w.h = newFNV128()
	w.str(s.Root)
	for _, name := range s.Names {
		w.byte('T')
		w.str(name)
		if t, ok := s.Types[name]; ok {
			w.hashType(t, nil)
		} else {
			w.byte('?')
		}
	}
	return w.h.sum()
}

// fnv128 is an inline FNV-128a state, byte-compatible with the stdlib
// hash/fnv.New128a but a plain value: no hash.Hash interface, no
// io.Writer indirection, so hashing a schema allocates nothing beyond
// the result. Fingerprinting runs once per candidate configuration in
// the search inner loop, which is why it is hand-rolled here.
type fnv128 struct{ hi, lo uint64 }

const (
	fnvOffset128Hi   = 0x6c62272e07bb0142
	fnvOffset128Lo   = 0x62b821756295c58d
	fnvPrime128Lo    = 0x13b
	fnvPrime128Shift = 24
)

func newFNV128() fnv128 { return fnv128{hi: fnvOffset128Hi, lo: fnvOffset128Lo} }

func (h *fnv128) byte(c byte) {
	h.lo ^= uint64(c)
	s0, s1 := bits.Mul64(fnvPrime128Lo, h.lo)
	s0 += h.lo<<fnvPrime128Shift + fnvPrime128Lo*h.hi
	h.lo, h.hi = s1, s0
}

func (h *fnv128) bytes(p []byte) {
	for _, c := range p {
		h.byte(c)
	}
}

func (h *fnv128) string(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

// sum renders the state big-endian, matching fnv.New128a().Sum(nil).
func (h *fnv128) sum() Fingerprint {
	var fp Fingerprint
	binary.BigEndian.PutUint64(fp[:8], h.hi)
	binary.BigEndian.PutUint64(fp[8:], h.lo)
	return fp
}

// Hash128 exposes the allocation-free FNV-128a state to sibling
// packages that derive Fingerprint-compatible keys (e.g. the
// evaluator's name-sensitive configuration key) without going through
// hash.Hash and its heap-escaping io.Writer path. The zero value is
// not ready; start with NewHash128.
type Hash128 struct{ h fnv128 }

// NewHash128 returns a fresh FNV-128a state.
func NewHash128() Hash128 { return Hash128{h: newFNV128()} }

// Byte folds one byte into the state.
func (h *Hash128) Byte(c byte) { h.h.byte(c) }

// Bytes folds a byte slice into the state.
func (h *Hash128) Bytes(p []byte) { h.h.bytes(p) }

// Str folds a string into the state without converting it to bytes.
func (h *Hash128) Str(s string) { h.h.string(s) }

// Sum returns the current state as a Fingerprint.
func (h *Hash128) Sum() Fingerprint { return h.h.sum() }

// hashWriter serializes type trees into a hash state with an unambiguous
// tagged encoding (every node writes a kind byte, every variable-length
// field a length prefix).
type hashWriter struct {
	h   fnv128
	buf [binary.MaxVarintLen64]byte
}

func (w *hashWriter) byte(b byte) { w.h.byte(b) }

func (w *hashWriter) uvarint(v uint64) {
	n := binary.PutUvarint(w.buf[:], v)
	w.h.bytes(w.buf[:n])
}

func (w *hashWriter) varint(v int64) {
	n := binary.PutVarint(w.buf[:], v)
	w.h.bytes(w.buf[:n])
}

func (w *hashWriter) float(v float64) {
	binary.LittleEndian.PutUint64(w.buf[:8], math.Float64bits(v))
	w.h.bytes(w.buf[:8])
}

func (w *hashWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.h.string(s)
}

func (w *hashWriter) hashType(t Type, canon map[string]int) {
	switch t := t.(type) {
	case *Scalar:
		w.byte('S')
		w.uvarint(uint64(t.Kind))
		w.varint(int64(t.Size))
		w.varint(t.Min)
		w.varint(t.Max)
		w.varint(t.Distinct)
		w.uvarint(uint64(len(t.Hist)))
		for _, b := range t.Hist {
			w.float(b)
		}
	case *Element:
		w.byte('E')
		w.str(t.Name)
		w.hashType(t.Content, canon)
	case *Attribute:
		w.byte('A')
		w.str(t.Name)
		w.hashType(t.Content, canon)
	case *Wildcard:
		w.byte('W')
		excl := t.Exclude
		if !sort.StringsAreSorted(excl) {
			excl = append([]string(nil), excl...)
			sort.Strings(excl)
		}
		w.uvarint(uint64(len(excl)))
		for _, e := range excl {
			w.str(e)
		}
		w.hashType(t.Content, canon)
	case *Sequence:
		// Sequence composition is associative — (a, (b, c)) has the same
		// content model, printing and relational mapping as (a, b, c) — so
		// nested sequences are flattened and singletons unwrapped before
		// hashing. The flattening copy is only paid when an item really is
		// a nested sequence: hashing runs once per candidate per type in
		// the search inner loop, and the common case is already flat.
		flat := t.Items
		if hasNestedSeq(flat) {
			flat = flattenSeqItems(flat, nil)
		}
		if len(flat) == 1 {
			w.hashType(flat[0], canon)
			return
		}
		w.byte('Q')
		w.uvarint(uint64(len(flat)))
		for _, it := range flat {
			w.hashType(it, canon)
		}
	case *Choice:
		// Union composition without fractions is associative: the uniform
		// split and every structural consumer (matching, mapping, update
		// resolution) treat (a | (b | c)) like (a | b | c), so fraction-less
		// nesting is flattened before hashing — mirroring the sequence
		// normalization above. Annotated fractions pin the nesting (they
		// are per-alternative), so fractioned choices hash as-is.
		alts := FlattenChoice(t)
		w.byte('C')
		w.uvarint(uint64(len(alts)))
		for _, a := range alts {
			w.hashType(a, canon)
		}
		w.uvarint(uint64(len(t.Fractions)))
		for _, f := range t.Fractions {
			w.float(f)
		}
	case *Repeat:
		w.byte('R')
		w.varint(int64(t.Min))
		w.varint(int64(t.Max))
		w.float(t.AvgCount)
		w.hashType(t.Inner, canon)
	case *Ref:
		if idx, ok := canon[t.Name]; ok {
			w.byte('F')
			w.uvarint(uint64(idx))
		} else {
			// Undefined reference: fall back to the raw name.
			w.byte('U')
			w.str(t.Name)
		}
	case *Empty:
		w.byte('Z')
	}
}

// Equivalent reports whether two schemas have identical reachable
// structure and statistics, up to renaming of the named types and up to
// definition order — exactly the relation Fingerprint captures (two
// schemas fingerprint equal iff they are Equivalent, modulo hash
// collisions).
func Equivalent(a, b *Schema) bool {
	ao, bo := a.CanonicalOrder(), b.CanonicalOrder()
	if len(ao) != len(bo) {
		return false
	}
	amap := make(map[string]int, len(ao))
	bmap := make(map[string]int, len(bo))
	for i := range ao {
		amap[ao[i]] = i
		bmap[bo[i]] = i
	}
	for i := range ao {
		at, aok := a.Types[ao[i]]
		bt, bok := b.Types[bo[i]]
		if aok != bok {
			return false
		}
		if aok && !equalCanonical(at, bt, amap, bmap) {
			return false
		}
	}
	return true
}

// hasNestedSeq reports whether any item is itself a sequence (the only
// case flattening changes anything).
func hasNestedSeq(items []Type) bool {
	for _, it := range items {
		if _, ok := it.(*Sequence); ok {
			return true
		}
	}
	return false
}

// flattenSeqItems appends items to out, expanding nested sequences.
func flattenSeqItems(items []Type, out []Type) []Type {
	for _, it := range items {
		if sq, ok := it.(*Sequence); ok {
			out = flattenSeqItems(sq.Items, out)
		} else {
			out = append(out, it)
		}
	}
	return out
}

// FlattenChoice returns the choice's alternatives with nested
// fraction-less choices spliced into the list (singleton sequence
// wrappers looked through, like hashType does). A choice that carries
// fractions keeps its alternatives untouched — the fractions are
// per-alternative, so its nesting is meaningful. Alternatives are never
// unwrapped below the splice (a single non-choice alternative stays a
// one-alternative union: it maps differently from its bare content).
//
// The uniform split of the relational mapping's edge walk uses the same
// flattened view, which is what keeps the fingerprint's associativity
// normalization cost-sound: two schemas that flatten identically are
// costed identically.
func FlattenChoice(t *Choice) []Type {
	if len(t.Fractions) != 0 {
		return t.Alts
	}
	if !hasNestedChoice(t.Alts) {
		return t.Alts
	}
	return flattenChoiceAlts(t.Alts, make([]Type, 0, len(t.Alts)+2))
}

func hasNestedChoice(alts []Type) bool {
	for _, a := range alts {
		if ch, ok := normalizeSeq(a).(*Choice); ok && len(ch.Fractions) == 0 {
			return true
		}
	}
	return false
}

func flattenChoiceAlts(alts []Type, out []Type) []Type {
	for _, a := range alts {
		if ch, ok := normalizeSeq(a).(*Choice); ok && len(ch.Fractions) == 0 {
			out = flattenChoiceAlts(ch.Alts, out)
		} else {
			out = append(out, a)
		}
	}
	return out
}

// normalizeSeq collapses sequence nesting (and singleton sequences) the
// same way hashType does, so Equivalent matches Fingerprint.
func normalizeSeq(t Type) Type {
	sq, ok := t.(*Sequence)
	if !ok {
		return t
	}
	flat := flattenSeqItems(sq.Items, nil)
	if len(flat) == 1 {
		return flat[0]
	}
	return &Sequence{Items: flat}
}

// normalizeChoice flattens fraction-less nested choices the same way
// hashType does, so Equivalent matches Fingerprint.
func normalizeChoice(t Type) Type {
	ch, ok := t.(*Choice)
	if !ok || len(ch.Fractions) != 0 {
		return t
	}
	flat := FlattenChoice(ch)
	if len(flat) == len(ch.Alts) {
		return t
	}
	return &Choice{Alts: flat}
}

// equalCanonical compares two type trees including statistics, with Ref
// targets compared by canonical index (so type names do not matter) and
// sequence and fraction-less choice nesting normalized.
func equalCanonical(a, b Type, amap, bmap map[string]int) bool {
	a, b = normalizeSeq(a), normalizeSeq(b)
	a, b = normalizeChoice(a), normalizeChoice(b)
	switch a := a.(type) {
	case *Scalar:
		b, ok := b.(*Scalar)
		if !ok || a.Kind != b.Kind || a.Size != b.Size || a.Min != b.Min ||
			a.Max != b.Max || a.Distinct != b.Distinct || len(a.Hist) != len(b.Hist) {
			return false
		}
		for i := range a.Hist {
			if math.Float64bits(a.Hist[i]) != math.Float64bits(b.Hist[i]) {
				return false
			}
		}
		return true
	case *Element:
		b, ok := b.(*Element)
		return ok && a.Name == b.Name && equalCanonical(a.Content, b.Content, amap, bmap)
	case *Attribute:
		b, ok := b.(*Attribute)
		return ok && a.Name == b.Name && equalCanonical(a.Content, b.Content, amap, bmap)
	case *Wildcard:
		b, ok := b.(*Wildcard)
		if !ok || len(a.Exclude) != len(b.Exclude) {
			return false
		}
		ae := append([]string(nil), a.Exclude...)
		be := append([]string(nil), b.Exclude...)
		sort.Strings(ae)
		sort.Strings(be)
		for i := range ae {
			if ae[i] != be[i] {
				return false
			}
		}
		return equalCanonical(a.Content, b.Content, amap, bmap)
	case *Sequence:
		b, ok := b.(*Sequence)
		if !ok || len(a.Items) != len(b.Items) {
			return false
		}
		for i := range a.Items {
			if !equalCanonical(a.Items[i], b.Items[i], amap, bmap) {
				return false
			}
		}
		return true
	case *Choice:
		b, ok := b.(*Choice)
		if !ok || len(a.Alts) != len(b.Alts) || len(a.Fractions) != len(b.Fractions) {
			return false
		}
		for i := range a.Alts {
			if !equalCanonical(a.Alts[i], b.Alts[i], amap, bmap) {
				return false
			}
		}
		for i := range a.Fractions {
			if math.Float64bits(a.Fractions[i]) != math.Float64bits(b.Fractions[i]) {
				return false
			}
		}
		return true
	case *Repeat:
		b, ok := b.(*Repeat)
		return ok && a.Min == b.Min && a.Max == b.Max &&
			math.Float64bits(a.AvgCount) == math.Float64bits(b.AvgCount) &&
			equalCanonical(a.Inner, b.Inner, amap, bmap)
	case *Ref:
		b, ok := b.(*Ref)
		if !ok {
			return false
		}
		ai, aok := amap[a.Name]
		bi, bok := bmap[b.Name]
		if aok != bok {
			return false
		}
		if !aok {
			return a.Name == b.Name
		}
		return ai == bi
	case *Empty:
		_, ok := b.(*Empty)
		return ok
	default:
		return false
	}
}
