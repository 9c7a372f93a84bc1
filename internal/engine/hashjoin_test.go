package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"legodb/internal/relational"
	"legodb/internal/sqlast"
)

// loadKeys appends one row per key to a child table of pairCatalog, all
// under parent 1. Keys may be NULL.
func loadKeys(t testing.TB, db *Database, table, col string, keys []Value) {
	t.Helper()
	tbl := db.Table(table)
	for _, k := range keys {
		row := make(Row, len(tbl.Def.Columns))
		row[tbl.ColumnIndex(table+"_id")] = IntVal(tbl.NextID())
		row[tbl.ColumnIndex(col)] = k
		row[tbl.ColumnIndex("parent_R")] = IntVal(1)
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
}

func intLit(n int) sqlast.Literal { return sqlast.Literal{IsInt: true, Int: int64(n)} }

// xEqYBlock joins the A rows with A_id <= k to B on a.x = b.y — a hash
// step, y being neither key nor indexed — optionally scanning only the B
// rows with B_id > bFrom.
func xEqYBlock(k, bFrom int) *sqlast.Block {
	b := &sqlast.Block{}
	b.AddTable("A", "a")
	b.AddTable("B", "b")
	y := sqlast.ColumnRef{Alias: "b", Column: "y"}
	b.Filters = []sqlast.Filter{
		{Col: sqlast.ColumnRef{Alias: "a", Column: "A_id"}, Op: sqlast.OpLe, Value: intLit(k)},
		{Col: sqlast.ColumnRef{Alias: "a", Column: "x"}, Op: sqlast.OpEq, RightCol: &y},
	}
	if bFrom > 0 {
		b.Filters = append(b.Filters, sqlast.Filter{
			Col: sqlast.ColumnRef{Alias: "b", Column: "B_id"}, Op: sqlast.OpGt, Value: intLit(bFrom),
		})
	}
	b.Projects = []sqlast.ColumnRef{
		{Alias: "a", Column: "A_id"}, {Alias: "b", Column: "B_id"},
		{Alias: "a", Column: "x"}, {Alias: "b", Column: "y"},
	}
	return b
}

// xJoinYBlock is xEqYBlock with a.x = b.y declared as a join instead of
// filtered: the equality the hash step binds b by.
func xJoinYBlock(k, bFrom int) *sqlast.Block {
	b := xEqYBlock(k, bFrom)
	b.Joins = []sqlast.Join{{Left: b.Filters[1].Col, Right: *b.Filters[1].RightCol}}
	b.Filters = slices.Delete(b.Filters, 1, 2)
	return b
}

// runBlock executes a block and returns the rows in emission order with
// the execution's counter delta.
func runBlock(t *testing.T, db *Database, b *sqlast.Block) ([]Row, Counters) {
	t.Helper()
	before := db.Stats
	rs, err := db.ExecuteBlock(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rs.Rows, counterDelta(db.Stats, before)
}

func sameRowsInOrder(a, b []Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return fmt.Errorf("row %d: %v vs %v", i, a[i], b[i])
			}
		}
	}
	return nil
}

// TestHashJoinSideSelectionDifferential drives the hash step across both
// build sides and the hand-over between them: intermediates of 0, 1, a
// few and more than a chunk of tuples against scans of 0 to three chunks,
// unfiltered and filtered, with duplicate keys on both sides, with NULL
// keys and string keys ("7" beside "07"), live and tombstoned. Whichever
// side it hashed, the executor must emit refRun's rows in refRun's order,
// and accrue one scan of each table, every physical row of it counted.
func TestHashJoinSideSelectionDifferential(t *testing.T) {
	const nA = 1600
	rng := rand.New(rand.NewSource(15))
	keyKinds := []struct {
		name, typ string
		draw      func(dom int) Value
	}{
		{"ints", "Integer", func(dom int) Value { return IntVal(int64(rng.Intn(dom))) }},
		{"nulls", "Integer", func(dom int) Value {
			if rng.Intn(4) == 0 {
				return Null
			}
			return IntVal(int64(rng.Intn(dom)))
		}},
		{"strings", "String<#8>", func(dom int) Value {
			switch n := rng.Intn(dom); rng.Intn(5) {
			case 0:
				return Null
			case 1:
				return StrVal("0" + strconv.Itoa(n))
			default:
				return StrVal(strconv.Itoa(n))
			}
		}},
	}
	for _, nB := range []int{0, 1, 6, 1100, 3000} {
		for _, kind := range keyKinds {
			for _, tombstoned := range []bool{false, true} {
				// Few enough distinct keys for duplicates on both sides,
				// enough to keep the largest join at a few thousand rows.
				dom := max(8, nA*nB/4000)
				db := NewDatabase(pairCatalog(t, kind.typ, kind.typ))
				for _, spec := range []struct {
					table, col string
					n          int
				}{{"A", "x", nA}, {"B", "y", nB}} {
					keys := make([]Value, spec.n)
					for i := range keys {
						keys[i] = kind.draw(dom)
					}
					loadKeys(t, db, spec.table, spec.col, keys)
					if tombstoned {
						for pos := 0; pos < spec.n; pos += 1 + rng.Intn(5) {
							db.Table(spec.table).MarkDeleted(pos)
						}
					}
				}
				for _, k := range []int{0, 1, 4, 1200, nA} {
					for _, bFrom := range []int{0, nB / 3} {
						name := fmt.Sprintf("B%d/%s/dead=%v/A%d/from%d", nB, kind.name, tombstoned, k, bFrom)
						block := xJoinYBlock(k, bFrom)
						got, stats := runBlock(t, db, block)
						want, err := refRun(db, single(block), nil)
						if err != nil {
							t.Fatal(err)
						}
						if err := sameRowsInOrder(got, want.Rows); err != nil {
							t.Fatalf("%s: executor vs definition: %v", name, err)
						}
						if stats.Scans != 2 || stats.TuplesRead != int64(nA+nB) || stats.Probes != 0 {
							t.Fatalf("%s: counters %+v, want one scan of each table", name, stats)
						}
					}
				}
			}
		}
	}
}

// TestNullKeysEdgeVsCrossFilter: a.x = b.y must select the same rows
// whether planBlock consumes it as a join edge or, both aliases being
// bound by another edge already, schedules it as a cross filter. Over
// NULL-bearing columns that holds only if join edges, like cross
// filters, never match NULL with NULL.
func TestNullKeysEdgeVsCrossFilter(t *testing.T) {
	bothModes(t, func(t *testing.T, run runner) {
		db := NewDatabase(twoTableCatalog(t))
		loadKeys(t, db, "A", "x", []Value{IntVal(1), Null, IntVal(2), Null, IntVal(3)})
		loadKeys(t, db, "B", "y", []Value{Null, IntVal(2), IntVal(3), IntVal(3), Null})
		asEdge := xEqYBlock(5, 0)
		// Every row has parent_R = 1, so this join binds all pairs and
		// leaves the equality to run as a filter.
		asFilter := xEqYBlock(5, 0)
		asFilter.Joins = []sqlast.Join{{
			Left:  sqlast.ColumnRef{Alias: "a", Column: "parent_R"},
			Right: sqlast.ColumnRef{Alias: "b", Column: "parent_R"},
		}}
		rows := func(b *sqlast.Block) []Row {
			t.Helper()
			rs, err := run(db, single(b), nil)
			if err != nil {
				t.Fatal(err)
			}
			return rs.Rows
		}
		edge, filter := rows(asEdge), rows(asFilter)
		if err := sameRowsInOrder(edge, filter); err != nil {
			t.Fatalf("edge vs cross filter: %v", err)
		}
		if len(edge) != 3 { // 2=2, 3=3, 3=3
			t.Fatalf("rows = %v, want the 3 non-NULL matches", edge)
		}

		// The index nested-loop edge obeys the same rule: a NULL foreign
		// key does not find a NULL key.
		r := db.Table("R")
		for _, id := range []Value{IntVal(1), Null} {
			row := make(Row, len(r.Def.Columns))
			row[r.ColumnIndex("R_id")] = id
			if err := r.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		a := db.Table("A")
		orphan := make(Row, len(a.Def.Columns))
		orphan[a.ColumnIndex("A_id")] = IntVal(a.NextID())
		if err := a.Insert(orphan); err != nil {
			t.Fatal(err)
		}
		inl := rows(inlBlock())
		if len(inl) != 5 {
			t.Fatalf("INL rows = %v, want the 5 A rows under R 1", inl)
		}
	})
}

// keyTypes are the column types A.x and B.y take in the fused-key tests:
// both INT, both CHAR, and one of each, whose equality is no edge and
// fuses into no key.
var keyTypes = [][2]string{{"Integer", "Integer"}, {"String<#8>", "String<#8>"}, {"Integer", "String<#8>"}}

// fuzzCell maps a fuzz byte to a cell of a column of type typ: from a
// pool with NULLs and, for strings, colliding renderings ("7", "007").
func fuzzCell(c byte, typ string) Value {
	if typ == "Integer" {
		return [...]Value{Null, IntVal(7), IntVal(-1), IntVal(0), IntVal(1), IntVal(7), IntVal(2), IntVal(3)}[c%8]
	}
	return [...]Value{Null, StrVal("7"), StrVal("007"), StrVal("-1"), StrVal("a"), StrVal("1"), StrVal("0"), StrVal("2")}[c%8]
}

// fuzzParent maps a fuzz byte to a parent_R cell: 1, 2 or NULL.
func fuzzParent(c byte) Value {
	return [...]Value{IntVal(1), IntVal(2), IntVal(1), Null}[c>>6]
}

// loadFused fills A and B of a pairCatalog database with one row per
// byte, x or y and parent_R drawn from it, and tombstones every dead-th
// row (none for 0).
func loadFused(t testing.TB, db *Database, types [2]string, as, bs []byte, dead int) {
	t.Helper()
	for i, spec := range []struct {
		table, col string
		cells      []byte
	}{{"A", "x", as}, {"B", "y", bs}} {
		tbl := db.Table(spec.table)
		for _, c := range spec.cells {
			row := make(Row, len(tbl.Def.Columns))
			row[tbl.ColumnIndex(spec.table+"_id")] = IntVal(tbl.NextID())
			row[tbl.ColumnIndex(spec.col)] = fuzzCell(c, types[i])
			row[tbl.ColumnIndex("parent_R")] = fuzzParent(c)
			if err := tbl.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		for pos := 0; dead > 0 && pos < len(spec.cells); pos += dead {
			tbl.MarkDeleted(pos)
		}
	}
}

// fusedBlock is xEqYBlock joined on a.parent_R = b.parent_R, so that the
// step binding b by that edge fuses a.x = b.y into its key when the two
// columns have one kind.
func fusedBlock(k int) *sqlast.Block {
	block := xEqYBlock(k, 0)
	block.Joins = []sqlast.Join{{
		Left:  sqlast.ColumnRef{Alias: "a", Column: "parent_R"},
		Right: sqlast.ColumnRef{Alias: "b", Column: "parent_R"},
	}}
	return block
}

// FuzzJoinKeyCoercion: a.parent_R = b.parent_R joined with a.x = b.y beside
// it must return exactly refRun's rows, in its order, whichever of its
// two build sides the hash step takes (sizes and the filter on A move it)
// and when a secondary index on B.parent_R makes the step probe instead:
// with x and y of one kind the equality is fused into the hash key and
// checked at each index match, with INT x and CHAR y it stays a cross
// filter comparing decimal strings.
func FuzzJoinKeyCoercion(f *testing.F) {
	f.Add([]byte{1, 2, 3, 9, 66, 130, 200}, []byte{2, 1, 3, 0, 65, 129}, uint8(7), uint8(3), uint8(0))
	f.Add([]byte{0, 0, 1}, []byte{1, 1, 1, 1, 2, 2, 2, 2, 7, 15}, uint8(2), uint8(2), uint8(1))
	f.Add([]byte{5, 4, 6, 7, 23, 31}, []byte{4}, uint8(6), uint8(0), uint8(2))
	f.Add([]byte{}, []byte{1, 2}, uint8(0), uint8(5), uint8(1))
	f.Fuzz(func(t *testing.T, as, bs []byte, k, dead, types uint8) {
		as, bs = as[:min(len(as), 64)], bs[:min(len(bs), 64)]
		typ := keyTypes[int(types)%len(keyTypes)]
		db := NewDatabase(pairCatalog(t, typ[0], typ[1]))
		loadFused(t, db, typ, as, bs, int(dead))
		for _, indexes := range [][]relational.IndexRef{nil, {{Table: "B", Column: "parent_R"}}} {
			if err := db.SetIndexes(indexes); err != nil {
				t.Fatal(err)
			}
			if err := sameAsDefinition(db, fusedBlock(int(k)), nil); err != nil {
				t.Fatalf("%v, indexes %v: %v", typ, indexes, err)
			}
		}
	})
}

// TestAllocsHashPointProbe: a one-tuple intermediate probing a relation
// through a hash step hashes its own tuple and streams the scan, so the
// step allocates the same handful of objects whether the relation holds
// a thousand rows or ten thousand.
func TestAllocsHashPointProbe(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold without the race detector")
	}
	allocs := func(nB int) float64 {
		db := benchDB(t, 1, 1, nB, nB/2) // two matches at either size
		block := hashJoinBlock()
		return testing.AllocsPerRun(20, func() {
			rs, err := db.ExecuteBlock(block, nil)
			if err != nil || len(rs.Rows) != 2 {
				t.Fatalf("rows = %d, err = %v", len(rs.Rows), err)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if large != small || large > 40 {
		t.Errorf("point probe allocates %.0f objects into 10 000 rows, %.0f into 1 000; want the same, at most 40", large, small)
	}
}

// TestAllocsIndexStartLookup budgets the index start lookup: probing the
// index allocates nothing while no matched row is dead (the positions
// alias the index), and a point lookup through it allocates the same
// whatever the size of the relation — the position vector and the result,
// never anything per row scanned.
func TestAllocsIndexStartLookup(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold without the race detector")
	}
	x := relational.IndexRef{Table: "A", Column: "x"}
	db := benchDB(t, 1, 10000, 0, 5000, x)
	a := db.Table("A")
	a.MarkDeleted(0) // dead elsewhere: x = 0, not the probed 7
	ix, lit := a.accessIndex("x"), IntVal(7)
	if got := testing.AllocsPerRun(200, func() {
		if len(a.lookup(ix, lit)) != 2 {
			t.Fatal("unexpected lookup result")
		}
	}); got > 0 {
		t.Errorf("lookup: %.1f allocs/op, budget 0", got)
	}
	allocs := func(nA int) float64 {
		db := benchDB(t, 1, nA, 0, nA/2, x) // two matches at either size
		block := pointBlock()
		return testing.AllocsPerRun(20, func() {
			rs, err := db.ExecuteBlock(block, nil)
			if err != nil || len(rs.Rows) != 2 {
				t.Fatalf("rows = %d, err = %v", len(rs.Rows), err)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if large != small || large > 24 {
		t.Errorf("index point lookup allocates %.0f objects into 10 000 rows, %.0f into 1 000; want the same, at most 24", large, small)
	}
}

// TestFusedIndexJoinDifferential: a.parent_R = b.parent_R with a.x = b.y
// beside it, where a secondary index on B.parent_R makes the hash step
// run as index probes while the intermediate is the smaller side. With
// x and y of one kind the probe step checks the fused a.x = b.y at each
// match, as the hash key does; with INT x and CHAR y it leaves it to the
// cross filter. It must return the rows, in order, and the errors of the
// same block joined by hash without the index, and refRun's rows. The
// cells hold colliding renderings ("7", "007"), NULLs on both the edge
// and the compared column, and tombstoned rows.
func TestFusedIndexJoinDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 60; trial++ {
		typ := keyTypes[trial%len(keyTypes)]
		db := NewDatabase(pairCatalog(t, typ[0], typ[1]))
		nA, nB := 1+rng.Intn(40), 60+rng.Intn(200)
		as, bs := make([]byte, nA), make([]byte, nB)
		rng.Read(as)
		rng.Read(bs)
		loadFused(t, db, typ, as, bs, trial%2*(2+rng.Intn(3)))
		k := rng.Intn(nA + 1)
		block := fusedBlock(k)
		// A fused part whose column does not resolve is left to its cross
		// filter, which fails after the join on every path alike.
		broken := fusedBlock(k)
		broken.Filters[1].RightCol = &sqlast.ColumnRef{Alias: "b", Column: "nope"}

		for _, b := range []*sqlast.Block{block, broken} {
			run := func() ([]Row, Counters, error) {
				before := db.Stats
				rs, err := db.ExecuteBlock(b, nil)
				if err != nil {
					return nil, counterDelta(db.Stats, before), err
				}
				return rs.Rows, counterDelta(db.Stats, before), nil
			}
			if err := db.SetIndexes(nil); err != nil {
				t.Fatal(err)
			}
			hash, _, hashErr := run()
			if err := db.SetIndexes([]relational.IndexRef{{Table: "B", Column: "parent_R"}}); err != nil {
				t.Fatal(err)
			}
			inl, inlStats, inlErr := run()
			name := fmt.Sprintf("trial %d, %v, k=%d, broken=%v", trial, typ, k, b == broken)
			if fmt.Sprint(inlErr) != fmt.Sprint(hashErr) {
				t.Fatalf("%s: errors: inl %v, hash %v", name, inlErr, hashErr)
			}
			if b == broken && inlErr == nil && k > 0 {
				t.Fatalf("%s: the unresolved cross filter did not fail", name)
			}
			if k > 0 && inlStats.Scans != 1 {
				t.Fatalf("%s: %d scans, want the start's only: the step did not probe the index", name, inlStats.Scans)
			}
			if inlErr != nil {
				continue
			}
			if err := sameRowsInOrder(inl, hash); err != nil {
				t.Fatalf("%s: inl vs hash: %v", name, err)
			}
			want, err := refRun(db, single(b), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRowsInOrder(inl, want.Rows); err != nil {
				t.Fatalf("%s: inl vs definition: %v", name, err)
			}
		}
	}
}
