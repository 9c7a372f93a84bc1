package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"legodb/internal/relational"
	"legodb/internal/sqlast"
	"legodb/internal/xschema"
)

var allOps = []sqlast.CmpOp{
	sqlast.OpEq, sqlast.OpNe, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe,
}

// kindCatalog maps two child tables under one root with a column of each
// kind: A.x is an INT column and B.y a CHAR(8) one.
func kindCatalog(t testing.TB) *relational.Catalog {
	t.Helper()
	s := xschema.MustParseSchema(`
type R = r[ A*<#3>, B*<#3> ]
type A = a[ x[ Integer ] ]
type B = b[ y[ String<#8> ] ]`)
	cat, err := relational.Map(s)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// paramBlock selects the key and col of every row of table whose col
// satisfies (op c1), c1 a parameter.
func paramBlock(table, col string, op sqlast.CmpOp) *sqlast.Block {
	b := &sqlast.Block{}
	b.AddTable(table, "t")
	b.Filters = []sqlast.Filter{{
		Col: sqlast.ColumnRef{Alias: "t", Column: col}, Op: op,
		Value: sqlast.Literal{IsParam: true, Param: "c1"},
	}}
	b.Projects = []sqlast.ColumnRef{{Alias: "t", Column: table + "_id"}, {Alias: "t", Column: col}}
	return b
}

// FuzzSatisfiesCoercion holds every comparison path to the one rule, as
// refRun's nested loops define it: a literal or parameter takes its
// column's kind (an integer its decimal string, a string the integer it
// spells, surrounding space allowed, or nothing — matching no row under
// any operator — when it spells none), two columns of one kind compare
// values, and two of different kinds decimal strings. For each operator
// it runs a filter on the INT column A.x and on the CHAR column B.y, by
// scan (compactLiteral) and, for =, by index start, and the cross filter
// a.x op b.y (compactPair's cast). The columns hold both renderings of n,
// "0"-padded digits, NULL and whatever integer s spells; one row of each
// is dead.
func FuzzSatisfiesCoercion(f *testing.F) {
	f.Add(int64(7), "7")
	f.Add(int64(7), "007")
	f.Add(int64(-3), " -3 ")
	f.Add(int64(42), "x42")
	f.Add(int64(0), "")
	f.Add(int64(300), "1999")
	f.Fuzz(func(t *testing.T, n int64, s string) {
		ns := strconv.FormatInt(n, 10)
		if got, want := sign(castCmp(n, s)), sign(strings.Compare(ns, s)); got != want {
			t.Fatalf("castCmp(%d, %q) = %d, want %d", n, s, got, want)
		}
		db := NewDatabase(kindCatalog(t))
		xs := []Value{IntVal(n), IntVal(n + 1), Null, IntVal(n)}
		if m, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64); err == nil {
			xs = append(xs, IntVal(m))
		}
		loadKeys(t, db, "A", "x", xs)
		loadKeys(t, db, "B", "y", []Value{StrVal(s), StrVal(ns), Null, StrVal("0" + ns), StrVal(s)})
		db.Table("A").MarkDeleted(3)
		db.Table("B").MarkDeleted(4)
		cross := &sqlast.Block{}
		cross.AddTable("A", "a")
		cross.AddTable("B", "b")
		cross.Projects = []sqlast.ColumnRef{{Alias: "a", Column: "A_id"}, {Alias: "b", Column: "B_id"}}
		lits := []Value{IntVal(n), StrVal(s), StrVal(ns), StrVal(" " + ns + " "), Null}
		for _, indexes := range [][]relational.IndexRef{nil, {{Table: "A", Column: "x"}, {Table: "B", Column: "y"}}} {
			if err := db.SetIndexes(indexes); err != nil {
				t.Fatal(err)
			}
			for _, op := range allOps {
				for _, lit := range lits {
					for _, b := range []*sqlast.Block{paramBlock("A", "x", op), paramBlock("B", "y", op)} {
						if err := sameAsDefinition(db, b, Params{"c1": lit}); err != nil {
							t.Fatalf("%s with c1 = %#v, indexes %v: %v", b, lit, indexes, err)
						}
					}
				}
				y := sqlast.ColumnRef{Alias: "b", Column: "y"}
				cross.Filters = []sqlast.Filter{{Col: sqlast.ColumnRef{Alias: "a", Column: "x"}, Op: op, RightCol: &y}}
				if err := sameAsDefinition(db, cross, nil); err != nil {
					t.Fatalf("%s, indexes %v: %v", cross, indexes, err)
				}
			}
		}
	})
}

// sameAsDefinition runs a block through the executor and through refRun
// and reports how their rows differ, order included.
func sameAsDefinition(db *Database, b *sqlast.Block, params Params) error {
	got, err := db.ExecuteBlock(b, params)
	if err != nil {
		return err
	}
	want, err := refRun(db, single(b), params)
	if err != nil {
		return err
	}
	if err := sameRowsInOrder(got.Rows, want.Rows); err != nil {
		return fmt.Errorf("executor vs definition: %v", err)
	}
	return nil
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

// randomCell draws a cell of one kind from a pool with NULLs and, for
// strings, colliding renderings ("7" vs "007") and non-digits.
func randomCell(rng *rand.Rand, kind ValueKind) Value {
	switch r := rng.Intn(10); {
	case r == 0:
		return Null
	case kind == IntValue:
		return IntVal(int64(rng.Intn(19) - 9))
	case r < 5:
		return StrVal(strconv.Itoa(rng.Intn(10)))
	case r < 8:
		return StrVal("00" + strconv.Itoa(rng.Intn(10)))
	default:
		return StrVal(string(rune('a' + rng.Intn(3))))
	}
}

// scratchTable builds a single-column heap table of one kind holding
// vals, the simplest host for gather-based kernels.
func scratchTable(kind ValueKind, vals []Value) *Table {
	typ := relational.IntCol
	if kind == StrValue {
		typ = relational.VarCharCol
	}
	t := NewTable(&relational.Table{Name: "S", Columns: []*relational.Column{{Name: "c", Type: typ, Size: 16}}})
	for _, v := range vals {
		if err := t.Insert(Row{v}); err != nil {
			panic(err)
		}
	}
	return t
}

var kinds = []ValueKind{IntValue, StrValue}

// TestVectorKernelsMatchRule: the typed filter kernels must agree with
// the one rule, as refRun writes it out, on every element:
// compactLiteral on a column of either kind against a literal of either
// kind converted to it, and compactPair on every pair of column kinds —
// by value for one kind, through the cast for two.
func TestVectorKernelsMatchRule(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	col := map[ValueKind]*relational.Column{
		IntValue: {Name: "c", Type: relational.IntCol},
		StrValue: {Name: "c", Type: relational.VarCharCol},
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		sel := make([]int32, n)
		reset := func() []int32 {
			for i := range sel {
				sel[i] = int32(i)
			}
			return sel
		}
		var lv, rv Vector
		for _, lk := range kinds {
			left := make([]Value, n)
			for i := range left {
				left[i] = randomCell(rng, lk)
			}
			lt := scratchTable(lk, left)
			for _, op := range allOps {
				lit := randomCell(rng, kinds[rng.Intn(2)])
				lv.gather(lt, 0, reset())
				got := compactLiteral(&lv, op, convert(lit, lk), sel)
				var want []int32
				conv := refLiteral(lit, col[lk])
				for i := 0; i < n; i++ {
					if c, ok := refCompare(left[i], conv); ok && opHolds(op, c) {
						want = append(want, int32(i))
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("compactLiteral(%v, %#v) = %v, want %v (col %v)", op, lit, got, want, left)
				}
			}
			for _, rk := range kinds {
				right := make([]Value, n)
				for i := range right {
					right[i] = randomCell(rng, rk)
				}
				rt := scratchTable(rk, right)
				for _, op := range allOps {
					lv.gather(lt, 0, reset())
					rv.gather(rt, 0, sel)
					got := compactPair(&lv, &rv, op, sel)
					var want []int32
					for i := 0; i < n; i++ {
						if c, ok := refCompare(left[i], right[i]); ok && opHolds(op, c) {
							want = append(want, int32(i))
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("compactPair(%v) = %v, want %v (%v vs %v)", op, got, want, left, right)
					}
				}
			}
			// Gathered vectors must rebox to the exact original values.
			lv.gather(lt, 0, reset())
			for i := 0; i < n; i++ {
				if lv.value(i) != left[i] {
					t.Fatalf("value(%d) = %v, want %v", i, lv.value(i), left[i])
				}
			}
		}
	}
}

// value reboxes element j.
func (v *Vector) value(j int) Value {
	switch {
	case v.isNull(j):
		return Null
	case v.kind == IntValue:
		return IntVal(v.ints[j])
	default:
		return StrVal(v.strs[j])
	}
}

// chain collects the build positions a probe value reaches, as a hash
// step finds them: the chain of the value's hash, narrowed by the exact
// compare of join-edge cells.
func (ht *hashTable) chain(build joinKey, v Value) []int32 {
	probe := joinKey{{t: scratchTable(build[0].t.kind(0), []Value{v}), at: []int32{0}}}
	hs := probe.hashes(0, 1, make([]uint64, 1))
	var out []int32
	for j := ht.first(hs[0]); j != 0; j = ht.after(j, hs[0]) {
		if ht.exact(hs[0]) || build.primary(j-1) == probe.primary(0) {
			out = append(out, build[0].at[j-1])
		}
	}
	return out
}

// TestHashTableMatchesValueMap: the flat chained build over a column of
// either kind must reach exactly the positions, in build order, that a
// map[Value][]int build (NULL keys left out) holds for every probe of
// that kind, NULL probes reaching nothing. A fused key part must hash
// every pair of equal cells alike, or the hash step would lose a pair its
// cross filter keeps.
func TestHashTableMatchesValueMap(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 200; trial++ {
		for _, kind := range kinds {
			n := rng.Intn(30)
			vals := make([]Value, n)
			for i := range vals {
				vals[i] = randomCell(rng, kind)
			}
			tb := scratchTable(kind, vals)
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
			probes := append([]Value{Null, convert(StrVal("7"), kind), convert(StrVal("007"), kind)}, vals...)
			for i := 0; i < 10; i++ {
				probes = append(probes, randomCell(rng, kind))
			}
			for _, p := range probes {
				if got, want := ht.chain(build, p), ref[p]; !slices.Equal(got, want) {
					t.Fatalf("lookup(%v) = %v, want %v (build %v)", p, got, want, vals)
				}
			}

			one := scratchTable(IntValue, []Value{IntVal(1)})
			fused := joinKey{{t: one, at: make([]int32, n)}, {t: tb, at: positions}}
			hashes := fused.hashes(0, n, make([]uint64, n))
			for i := range vals {
				for j := range vals {
					if !vals[i].IsNull() && vals[i] == vals[j] && hashes[i] != hashes[j] {
						t.Fatalf("fused %#v and %#v hash apart", vals[i], vals[j])
					}
				}
				if vals[i].IsNull() != (hashes[i] == 0) {
					t.Fatalf("fused %#v hashes to %d", vals[i], hashes[i])
				}
			}
		}
	}
}

// TestHashTableCollisions forces many hashes into one directory bucket —
// the bucket of 0, the hash of a key with a NULL part — and checks that
// the chain a probe walks still holds exactly the entries of its own
// hash, ascending; that exact skips the cell compare only for an INT
// edge alone and a hash other than the 1 that 0 and 1 share; and that a
// 0 probe reaches nothing.
func TestHashTableCollisions(t *testing.T) {
	const n = 48
	buf := make([]uint64, BatchSize)
	positions := make([]int32, n)
	for i := range positions {
		positions[i] = int32(i)
	}
	// A build of n NULLs has the directory every n-entry build has.
	dir := buildHash(joinKey{{t: scratchTable(IntValue, make([]Value, n)), at: positions}}, n, buf, new(arena))
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
	for i := 0; len(strs) < 4; i++ {
		s := "s" + strconv.Itoa(i)
		if h := strHash(s); dir.bucket(h) == dir.bucket(0) {
			strs = append(strs, StrVal(s))
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, pool := range [][]Value{ints, strs} {
		kind := pool[0].Kind
		vals := make([]Value, n)
		for i := range vals {
			if rng.Intn(8) == 0 {
				vals[i] = Null
			} else {
				vals[i] = pool[rng.Intn(len(pool))]
			}
		}
		build := joinKey{{t: scratchTable(kind, vals), at: positions}}
		ht := buildHash(build, n, buf, new(arena))
		hs := build.hashes(0, n, make([]uint64, n))
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
			if !slices.Equal(got, want) {
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
			if got := ht.chain(build, p); !slices.Equal(got, want) {
				t.Fatalf("probe %v reaches %v, want %v (build %v)", p, got, want, vals)
			}
		}
		lone := kind == IntValue
		if ht.ints != lone {
			t.Fatalf("ints = %v for a build of %v", ht.ints, pool)
		}
		for _, v := range pool[1:] {
			h, _ := cellHash(v, strHash(v.Str))
			if got, want := ht.exact(h), lone && h != 1; got != want {
				t.Fatalf("exact(%v) = %v, want %v", v, got, want)
			}
		}
	}
}
