package engine

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"legodb/internal/relational"
	"legodb/internal/sqlast"
)

var allOps = []sqlast.CmpOp{
	sqlast.OpEq, sqlast.OpNe, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe,
}

// FuzzSatisfiesCoercion pins the mixed-kind comparison contract to the
// shredder's storage rules: an integer coerces to its decimal string, so
// IntVal(7) equals StrVal("7") but stays distinct from "007" (the
// shredder stores digits verbatim in string columns and parsed in
// integer columns). It also cross-checks opHolds against satisfies and
// NULL's never-matching, and holds the index start lookup to the same
// contract: for every literal/cell kind pair, lookupEq finds exactly the
// positions whose cell satisfies (= literal), in order.
func FuzzSatisfiesCoercion(f *testing.F) {
	def := &relational.Table{Name: "T", Columns: []*relational.Column{
		{Name: "T_id", Key: true}, {Name: "v", Index: true},
	}}
	f.Add(int64(7), "7", uint8(0))
	f.Add(int64(7), "007", uint8(0))
	f.Add(int64(-3), "-3", uint8(1))
	f.Add(int64(42), "x42", uint8(4))
	f.Add(int64(0), "", uint8(2))
	f.Fuzz(func(t *testing.T, n int64, s string, opRaw uint8) {
		op := allOps[int(opRaw)%len(allOps)]
		iv, sv := IntVal(n), StrVal(s)
		// Mixed-kind comparison must behave exactly like comparing the
		// integer's decimal rendering against the string, both ways.
		want := opHolds(op, Compare(StrVal(strconv.FormatInt(n, 10)), sv))
		if got := satisfies(iv, op, sv); got != want {
			t.Fatalf("satisfies(%d, %v, %q) = %v, want %v", n, op, s, got, want)
		}
		flipped := map[sqlast.CmpOp]sqlast.CmpOp{
			sqlast.OpEq: sqlast.OpEq, sqlast.OpNe: sqlast.OpNe,
			sqlast.OpLt: sqlast.OpGt, sqlast.OpLe: sqlast.OpGe,
			sqlast.OpGt: sqlast.OpLt, sqlast.OpGe: sqlast.OpLe,
		}[op]
		if got := satisfies(sv, flipped, iv); got != want {
			t.Fatalf("satisfies(%q, %v, %d) = %v, want %v", s, flipped, n, got, want)
		}
		// Equality through coercion agrees with string identity of the
		// decimal rendering — "007" never equals 7.
		if satisfies(iv, sqlast.OpEq, sv) != (strconv.FormatInt(n, 10) == s) {
			t.Fatalf("eq coercion diverges for %d vs %q", n, s)
		}
		// NULL matches nothing under any operator.
		if satisfies(Null, op, sv) || satisfies(iv, op, Null) || satisfies(Null, op, Null) {
			t.Fatalf("NULL matched under %v", op)
		}
		// The zero-alloc byte comparator agrees with string comparison.
		buf := strconv.AppendInt(nil, n, 10)
		if sign(cmpBytesStr(buf, s)) != sign(Compare(StrVal(string(buf)), sv)) {
			t.Fatalf("cmpBytesStr(%q, %q) sign mismatch", buf, s)
		}
		// An index probe is the equality filter it replaces. The column
		// mixes both kinds, both renderings of n, NULL, and whatever
		// integer s spells; one row is dead.
		cells := []Value{iv, sv, StrVal(string(buf)), Null, IntVal(n + 1), sv, iv}
		if m, err := strconv.ParseInt(s, 10, 64); err == nil {
			cells = append(cells, IntVal(m))
		}
		tbl := NewTable(def)
		for i, c := range cells {
			if err := tbl.Insert(Row{IntVal(int64(i + 1)), c}); err != nil {
				t.Fatal(err)
			}
		}
		tbl.MarkDeleted(len(cells) - 2)
		for _, lit := range []Value{iv, sv, StrVal(string(buf)), Null} {
			var want []int
			for pos, c := range cells {
				if tbl.Alive(pos) && satisfies(c, sqlast.OpEq, lit) {
					want = append(want, pos)
				}
			}
			if got := tbl.lookupEq(tbl.accessIndex("v"), lit); !slices.Equal(got, want) {
				t.Fatalf("lookupEq(%#v) over %#v = %v, filter keeps %v", lit, cells, got, want)
			}
		}
	})
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// randomValue draws from a pool that mixes kinds, NULLs, and colliding
// renderings ("7" vs 7 vs "007").
func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(6) {
	case 0:
		return Null
	case 1:
		return IntVal(int64(rng.Intn(10)))
	case 2:
		return IntVal(-int64(rng.Intn(10)))
	case 3:
		return StrVal(strconv.Itoa(rng.Intn(10)))
	case 4:
		return StrVal("00" + strconv.Itoa(rng.Intn(10)))
	default:
		return StrVal(string(rune('a' + rng.Intn(3))))
	}
}

// scratchTable builds a single-column heap table holding vals, the
// simplest host for gather-based kernels.
func scratchTable(vals []Value) *Table {
	def := &relational.Table{Name: "S", Columns: []*relational.Column{
		{Name: "c", Type: relational.VarCharCol, Size: 16},
	}}
	t := NewTable(def)
	for _, v := range vals {
		if err := t.Insert(Row{v}); err != nil {
			panic(err)
		}
	}
	return t
}

// TestVectorKernelsMatchSatisfies: the typed filter kernels
// (compactLiteral, compactPair / pairSatisfies) must agree with the
// scalar satisfies on every element, across homogeneous, null-bearing
// and mixed-kind columns — including the promote-to-boxed fallback.
func TestVectorKernelsMatchSatisfies(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		left := make([]Value, n)
		rightv := make([]Value, n)
		for i := range left {
			left[i] = randomValue(rng)
			rightv[i] = randomValue(rng)
		}
		lt, rt := scratchTable(left), scratchTable(rightv)
		sel := make([]int32, n)
		var lv, rv Vector
		for _, op := range allOps {
			lit := randomValue(rng)
			// compactLiteral vs satisfies.
			for i := range sel {
				sel[i] = int32(i)
			}
			lv.gather(lt, 0, sel[:n])
			got := compactLiteral(&lv, op, lit, sel[:n])
			var want []int32
			for i := 0; i < n; i++ {
				if satisfies(left[i], op, lit) {
					want = append(want, int32(i))
				}
			}
			if !equalI32(got, want) {
				t.Fatalf("compactLiteral(%v, %v) = %v, want %v (col %v)", op, lit, got, want, left)
			}
			// compactPair vs satisfies.
			for i := range sel {
				sel[i] = int32(i)
			}
			lv.gather(lt, 0, sel[:n])
			rv.gather(rt, 0, sel[:n])
			got = compactPair(&lv, &rv, op, sel[:n])
			want = want[:0]
			for i := 0; i < n; i++ {
				if satisfies(left[i], op, rightv[i]) {
					want = append(want, int32(i))
				}
			}
			if !equalI32(got, want) {
				t.Fatalf("compactPair(%v) = %v, want %v (%v vs %v)", op, got, want, left, rightv)
			}
		}
		// Gathered vectors must rebox to the exact original values.
		for i := range sel {
			sel[i] = int32(i)
		}
		lv.gather(lt, 0, sel[:n])
		for i := 0; i < n; i++ {
			if lv.value(i) != left[i] {
				t.Fatalf("value(%d) = %v, want %v", i, lv.value(i), left[i])
			}
		}
	}
}

// chain collects the build positions a probe value reaches, as a hash
// step finds them: the chain of the value's hash, narrowed by the exact
// compare of join-edge cells.
func (ht *hashTable) chain(build joinKey, v Value) []int32 {
	probe := joinKey{{t: scratchTable([]Value{v}), at: []int32{0}}}
	hs, ints := probe.hashes(0, 1, make([]uint64, 1))
	var out []int32
	for j := ht.first(hs[0]); j != 0; j = ht.after(j, hs[0]) {
		if ht.exact(hs[0], ints) || build.primary(j-1) == probe.primary(0) {
			out = append(out, build[0].at[j-1])
		}
	}
	return out
}

// TestHashTableMatchesValueMap: the flat chained build must reach exactly
// the positions, in build order, that a map[Value][]int build (NULL keys
// left out) holds for every probe —
// NULL probes and cross-kind probes reaching nothing. A fused key part
// must hash every pair satisfies calls equal alike, or the hash step
// would lose a pair its cross filter keeps.
func TestHashTableMatchesValueMap(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(30)
		vals := make([]Value, n)
		for i := range vals {
			vals[i] = randomValue(rng)
		}
		tb := scratchTable(vals)
		positions := make([]int32, n)
		ref := make(map[Value][]int32, n)
		for i := range positions {
			positions[i] = int32(i)
			if !vals[i].IsNull() {
				ref[vals[i]] = append(ref[vals[i]], int32(i))
			}
		}
		build := joinKey{{t: tb, at: positions}}
		ht := buildHash(build, n, make([]uint64, BatchSize), new(arena))
		probes := append([]Value{Null, IntVal(7), StrVal("7"), StrVal("007")}, vals...)
		for i := 0; i < 10; i++ {
			probes = append(probes, randomValue(rng))
		}
		for _, p := range probes {
			if got, want := ht.chain(build, p), ref[p]; !equalI32(got, want) {
				t.Fatalf("lookup(%v) = %v, want %v (build %v)", p, got, want, vals)
			}
		}

		one := scratchTable([]Value{IntVal(1)})
		fused := joinKey{{t: one, at: make([]int32, n)}, {t: tb, at: positions}}
		hashes, _ := fused.hashes(0, n, make([]uint64, n))
		for i := range vals {
			for j := range vals {
				if satisfies(vals[i], sqlast.OpEq, vals[j]) && hashes[i] != hashes[j] {
					t.Fatalf("fused %#v and %#v hash apart", vals[i], vals[j])
				}
			}
			if vals[i].IsNull() != (hashes[i] == 0) {
				t.Fatalf("fused %#v hashes to %d", vals[i], hashes[i])
			}
		}
	}
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHashTableCollisions forces many hashes into one directory bucket —
// the bucket of 0, the hash of a key with a NULL part — and checks that
// the chain a probe walks still holds exactly the entries of its own
// hash, ascending; that exact skips the cell compare only when both
// sides are lone integers and the hash is not the 1 that 0 and 1 share;
// and that a 0 probe reaches nothing.
func TestHashTableCollisions(t *testing.T) {
	const n = 48
	buf := make([]uint64, BatchSize)
	positions := make([]int32, n)
	for i := range positions {
		positions[i] = int32(i)
	}
	// A build of n NULLs has the directory every n-entry build has.
	dir := buildHash(joinKey{{t: scratchTable(make([]Value, n)), at: positions}}, n, buf, new(arena))
	if dir.first(0) != 0 {
		t.Fatal("an all-NULL build reaches an entry")
	}
	// Integers, and strings, whose hashes land in bucket(0); and 0 and 1,
	// which share the hash 1 (in another bucket).
	ints := []Value{IntVal(0), IntVal(1)}
	for v := int64(2); len(ints) < 6; v++ {
		if dir.bucket(uint64(v)) == dir.bucket(0) {
			ints = append(ints, IntVal(v))
		}
	}
	var strs []Value
	for i := 0; len(strs) < 2; i++ {
		s := "s" + strconv.Itoa(i)
		if h := strHash(s); dir.bucket(h) == dir.bucket(0) {
			strs = append(strs, StrVal(s))
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, pool := range [][]Value{ints, append(slices.Clone(ints), strs...)} {
		vals := make([]Value, n)
		for i := range vals {
			if rng.Intn(8) == 0 {
				vals[i] = Null
			} else {
				vals[i] = pool[rng.Intn(len(pool))]
			}
		}
		build := joinKey{{t: scratchTable(vals), at: positions}}
		ht := buildHash(build, n, buf, new(arena))
		hs, _ := build.hashes(0, n, make([]uint64, n))
		for _, h := range hs {
			if h > 1 && ht.bucket(h) != ht.bucket(0) {
				t.Fatalf("hash %x left the forced bucket", h)
			}
		}
		if ht.first(0) != 0 {
			t.Fatal("a 0 probe reaches an entry")
		}
		for _, h := range hs {
			var want, got []int32
			for j, hj := range hs {
				if h != 0 && hj == h {
					want = append(want, int32(j))
				}
			}
			for i := ht.first(h); i != 0; i = ht.after(i, h) {
				got = append(got, i-1)
			}
			if !equalI32(got, want) {
				t.Fatalf("chain of %x = %v, want the entries of that hash %v", h, got, want)
			}
		}
		for _, p := range append([]Value{Null}, pool...) {
			var want []int32
			for j, v := range vals {
				if !v.IsNull() && v == p {
					want = append(want, int32(j))
				}
			}
			if got := ht.chain(build, p); !equalI32(got, want) {
				t.Fatalf("probe %v reaches %v, want %v (build %v)", p, got, want, vals)
			}
		}
		lone := len(pool) == len(ints)
		if ht.ints != lone {
			t.Fatalf("ints = %v for a build of %v", ht.ints, pool)
		}
		for _, v := range ints[1:] {
			h, _ := edgeHash(v, 0)
			if got, want := ht.exact(h, true), lone && h != 1; got != want {
				t.Fatalf("exact(%v) = %v, want %v", v, got, want)
			}
			if ht.exact(h, false) {
				t.Fatalf("exact(%v) holds for a probe that is not lone integers", v)
			}
		}
	}
}
