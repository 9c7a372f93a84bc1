package engine

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"legodb/internal/relational"
	"legodb/internal/sqlast"
)

// loadKeys appends one row per key to a child table of twoTableCatalog,
// all under parent 1. Table.Insert does not check column types, so keys
// may be NULL or mix kinds.
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

// runMode executes a block under one executor and returns the rows in
// emission order with the execution's counter delta.
func runMode(t *testing.T, db *Database, opts Options, b *sqlast.Block) ([]Row, Counters) {
	t.Helper()
	db.Exec = opts
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
// and mixed-kind keys, live and tombstoned. The batch executor must emit
// the reference executor's rows in the reference order and accrue the
// same Counters whichever side it hashed.
func TestHashJoinSideSelectionDifferential(t *testing.T) {
	const nA = 1600
	rng := rand.New(rand.NewSource(15))
	keyKinds := []struct {
		name string
		draw func(dom int) Value
	}{
		{"ints", func(dom int) Value { return IntVal(int64(rng.Intn(dom))) }},
		{"nulls", func(dom int) Value {
			if rng.Intn(4) == 0 {
				return Null
			}
			return IntVal(int64(rng.Intn(dom)))
		}},
		{"mixed", func(dom int) Value {
			switch n := rng.Intn(dom); rng.Intn(5) {
			case 0:
				return Null
			case 1, 2:
				return StrVal(strconv.Itoa(n))
			default:
				return IntVal(int64(n))
			}
		}},
	}
	for _, nB := range []int{0, 1, 6, 1100, 3000} {
		for _, kind := range keyKinds {
			for _, tombstoned := range []bool{false, true} {
				// Few enough distinct keys for duplicates on both sides,
				// enough to keep the largest join at a few thousand rows.
				dom := max(8, nA*nB/4000)
				db := NewDatabase(twoTableCatalog(t))
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
						block := xEqYBlock(k, bFrom)
						got, gotStats := runMode(t, db, Options{}, block)
						want, wantStats := runMode(t, db, Options{RowAtATime: true}, block)
						if err := sameRowsInOrder(got, want); err != nil {
							t.Fatalf("%s: batch vs rows: %v", name, err)
						}
						if gotStats != wantStats {
							t.Fatalf("%s: counters diverge:\n batch=%+v\n rows =%+v", name, gotStats, wantStats)
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
// NULL-bearing columns that holds only if join edges, like satisfies,
// never match NULL with NULL.
func TestNullKeysEdgeVsCrossFilter(t *testing.T) {
	bothModes(t, func(t *testing.T, opts Options) {
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
		edge, _ := runMode(t, db, opts, asEdge)
		filter, _ := runMode(t, db, opts, asFilter)
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
		inl, _ := runMode(t, db, opts, inlBlock())
		if len(inl) != 5 {
			t.Fatalf("INL rows = %v, want the 5 A rows under R 1", inl)
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
		if len(a.lookupEq(ix, lit)) != 2 {
			t.Fatal("unexpected lookup result")
		}
	}); got > 0 {
		t.Errorf("lookupEq: %.1f allocs/op, budget 0", got)
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
