package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"legodb/internal/sqlast"
)

// runner answers a query on a database: the executor or refRun.
type runner func(db *Database, q *sqlast.Query, p Params) (*ResultSet, error)

// bothModes runs a subtest against the batch executor ("batch") and
// against refRun, the row-at-a-time definition of a block ("rows"), so
// each expected answer below holds the definition to it too.
func bothModes(t *testing.T, f func(t *testing.T, run runner)) {
	t.Helper()
	for _, m := range []struct {
		name string
		run  runner
	}{{"batch", (*Database).Execute}, {"rows", refRun}} {
		t.Run(m.name, func(t *testing.T) { f(t, m.run) })
	}
}

// single is the query of one block.
func single(b *sqlast.Block) *sqlast.Query { return &sqlast.Query{Blocks: []*sqlast.Block{b}} }

// sortedRowKeys canonicalizes a result set as a sorted multiset of
// kind-tagged row keys.
func sortedRowKeys(rs *ResultSet) []string {
	keys := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		var b strings.Builder
		for _, v := range r {
			switch v.Kind {
			case NullValue:
				b.WriteString("|N")
			case IntValue:
				fmt.Fprintf(&b, "|i%d", v.Int)
			default:
				b.WriteString("|s")
				b.WriteString(v.Str)
			}
		}
		keys[i] = b.String()
	}
	sort.Strings(keys)
	return keys
}

// TestEqCrossFilterBothAliasesBoundViaJoin is the regression test for
// the dropped-equality-cross-filter bug: when an eq cross filter's
// aliases both become bound through another join edge, the filter was
// skipped entirely ("it served as a join edge" — it never did), so the
// block returned every joined pair instead of only the equal ones.
func TestEqCrossFilterBothAliasesBoundViaJoin(t *testing.T) {
	bothModes(t, func(t *testing.T, run runner) {
		db := NewDatabase(twoTableCatalog(t))
		loadAB(t, db)
		b := &sqlast.Block{}
		b.AddTable("A", "a")
		b.AddTable("B", "b")
		// The declared join binds both aliases (every row has
		// parent_R = 1, so it joins all pairs)...
		b.Joins = []sqlast.Join{{
			Left:  sqlast.ColumnRef{Alias: "a", Column: "parent_R"},
			Right: sqlast.ColumnRef{Alias: "b", Column: "parent_R"},
		}}
		// ...so this eq cross filter is never consumed as a join edge
		// and must run as a filter. Pre-fix it was dropped, returning
		// all 9 pairs.
		right := sqlast.ColumnRef{Alias: "b", Column: "y"}
		b.Filters = []sqlast.Filter{{
			Col: sqlast.ColumnRef{Alias: "a", Column: "x"}, Op: sqlast.OpEq, RightCol: &right,
		}}
		b.Projects = []sqlast.ColumnRef{
			{Alias: "a", Column: "x"},
			{Alias: "b", Column: "y"},
		}
		rs, err := run(db, single(b), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 2 { // x∈{2,3} matching y∈{2,3}
			t.Fatalf("rows = %v, want the 2 equal pairs", rs.Rows)
		}
		for _, r := range rs.Rows {
			if Compare(r[0], r[1]) != 0 {
				t.Fatalf("unequal pair %v survived the eq cross filter", r)
			}
		}
	})
}

// TestSecondDeclaredJoinEnforced is the regression test for declared
// joins the planner never applied: with two joins between the same pair
// of aliases, the first bound B and the second — its ends both bound
// already — was dropped, so the block returned the whole cross product
// of the first (9 pairs) instead of the pairs both joins hold.
func TestSecondDeclaredJoinEnforced(t *testing.T) {
	bothModes(t, func(t *testing.T, run runner) {
		db := NewDatabase(twoTableCatalog(t))
		loadAB(t, db)
		b := &sqlast.Block{}
		b.AddTable("A", "a")
		b.AddTable("B", "b")
		b.Joins = []sqlast.Join{
			{Left: sqlast.ColumnRef{Alias: "a", Column: "parent_R"}, Right: sqlast.ColumnRef{Alias: "b", Column: "parent_R"}},
			{Left: sqlast.ColumnRef{Alias: "a", Column: "x"}, Right: sqlast.ColumnRef{Alias: "b", Column: "y"}},
		}
		b.Projects = []sqlast.ColumnRef{{Alias: "a", Column: "x"}, {Alias: "b", Column: "y"}}
		rs, err := run(db, single(b), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedRowKeys(rs); strings.Join(got, " ") != "|i2|i2 |i3|i3" {
			t.Fatalf("rows = %v, want the 2 pairs with x = y", got)
		}
	})
}

// TestRowsLeaveInFromOrder: the planner binds a (the alias with a
// constant filter) before b, but the rows leave in FROM order — by b's
// position, then a's — as they do from refRun's nested loops, so an
// answer's order does not depend on the join order chosen.
func TestRowsLeaveInFromOrder(t *testing.T) {
	bothModes(t, func(t *testing.T, run runner) {
		db := NewDatabase(twoTableCatalog(t))
		loadKeys(t, db, "A", "x", []Value{IntVal(2), IntVal(3), IntVal(2)})
		loadKeys(t, db, "B", "y", []Value{IntVal(3), IntVal(2), IntVal(2)})
		b := &sqlast.Block{}
		b.AddTable("B", "b")
		b.AddTable("A", "a")
		y := sqlast.ColumnRef{Alias: "b", Column: "y"}
		b.Filters = []sqlast.Filter{
			{Col: sqlast.ColumnRef{Alias: "a", Column: "A_id"}, Op: sqlast.OpLe, Value: intLit(3)},
			{Col: sqlast.ColumnRef{Alias: "a", Column: "x"}, Op: sqlast.OpEq, RightCol: &y},
		}
		b.Projects = []sqlast.ColumnRef{{Alias: "b", Column: "B_id"}, {Alias: "a", Column: "A_id"}}
		rs, err := run(db, single(b), nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range rs.Rows {
			got = append(got, fmt.Sprintf("%v-%v", r[0], r[1]))
		}
		if want := "1-2 2-1 2-3 3-1 3-3"; strings.Join(got, " ") != want {
			t.Fatalf("rows %v, want %s", got, want)
		}
	})
}

// TestExecuteUnionPadsShortRows: a union of a 1-column and a 2-column
// block must pad the narrow block's rows with NULL so every row has
// len(Columns) cells.
func TestExecuteUnionPadsShortRows(t *testing.T) {
	bothModes(t, func(t *testing.T, run runner) {
		db := NewDatabase(twoTableCatalog(t))
		loadAB(t, db)
		narrow := &sqlast.Block{}
		narrow.AddTable("A", "a")
		narrow.Projects = []sqlast.ColumnRef{{Alias: "a", Column: "x"}}
		wide := &sqlast.Block{}
		wide.AddTable("B", "b")
		wide.Projects = []sqlast.ColumnRef{
			{Alias: "b", Column: "B_id"},
			{Alias: "b", Column: "y"},
		}
		rs, err := run(db, &sqlast.Query{Blocks: []*sqlast.Block{narrow, wide}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Columns) != 2 || len(rs.Rows) != 6 {
			t.Fatalf("columns = %v, rows = %d", rs.Columns, len(rs.Rows))
		}
		padded := 0
		for _, r := range rs.Rows {
			if len(r) != len(rs.Columns) {
				t.Fatalf("row %v has %d cells, want %d", r, len(r), len(rs.Columns))
			}
			if r[1].IsNull() {
				padded++
			}
		}
		if padded != 3 { // the narrow block's three rows
			t.Fatalf("padded rows = %d, want 3", padded)
		}
	})
}

// TestModesAgreeOnSmallShapes holds the executor to refRun on the small
// shapes the unit tests above exercise individually — cartesian
// products, inequality cross filters, INL and hash joins, tombstoned
// rows — none of which the IMDB corpus of TestExecutorMatchesDefinition
// has: the same errors, columns and rows, in the same order where the
// plan leaves no alias out.
func TestModesAgreeOnSmallShapes(t *testing.T) {
	type shape struct {
		name  string
		block func() *sqlast.Block
	}
	right := func(alias, col string) *sqlast.ColumnRef {
		return &sqlast.ColumnRef{Alias: alias, Column: col}
	}
	shapes := []shape{
		{"cartesian", func() *sqlast.Block {
			b := &sqlast.Block{}
			b.AddTable("A", "a")
			b.AddTable("B", "b")
			b.Projects = []sqlast.ColumnRef{{Alias: "a", Column: "x"}, {Alias: "b", Column: "y"}}
			return b
		}},
		{"eq-cross-as-join", func() *sqlast.Block {
			b := &sqlast.Block{}
			b.AddTable("A", "a")
			b.AddTable("B", "b")
			b.Filters = []sqlast.Filter{{
				Col: sqlast.ColumnRef{Alias: "a", Column: "x"}, Op: sqlast.OpEq, RightCol: right("b", "y"),
			}}
			b.Projects = []sqlast.ColumnRef{{Alias: "a", Column: "x"}}
			return b
		}},
		{"lt-cross", func() *sqlast.Block {
			b := &sqlast.Block{}
			b.AddTable("A", "a")
			b.AddTable("B", "b")
			b.Filters = []sqlast.Filter{{
				Col: sqlast.ColumnRef{Alias: "a", Column: "x"}, Op: sqlast.OpLt, RightCol: right("b", "y"),
			}}
			b.Projects = []sqlast.ColumnRef{{Alias: "a", Column: "x"}, {Alias: "b", Column: "y"}}
			return b
		}},
		{"inl-through-key", func() *sqlast.Block {
			b := &sqlast.Block{}
			b.AddTable("A", "a")
			b.AddTable("R", "r")
			b.Joins = []sqlast.Join{{
				Left:  sqlast.ColumnRef{Alias: "a", Column: "parent_R"},
				Right: sqlast.ColumnRef{Alias: "r", Column: "R_id"},
			}}
			b.Projects = []sqlast.ColumnRef{{Alias: "a", Column: "x"}}
			return b
		}},
		{"hash-into-fk", func() *sqlast.Block {
			b := &sqlast.Block{}
			b.AddTable("R", "r")
			b.AddTable("A", "a")
			b.Joins = []sqlast.Join{{
				Left:  sqlast.ColumnRef{Alias: "a", Column: "parent_R"},
				Right: sqlast.ColumnRef{Alias: "r", Column: "R_id"},
			}}
			b.Projects = []sqlast.ColumnRef{{Alias: "a", Column: "x"}}
			return b
		}},
	}
	for _, tombstone := range []bool{false, true} {
		name := "live"
		if tombstone {
			name = "tombstoned"
		}
		t.Run(name, func(t *testing.T) {
			db := NewDatabase(twoTableCatalog(t))
			loadAB(t, db)
			r := db.Table("R")
			row := make(Row, len(r.Def.Columns))
			row[r.ColumnIndex("R_id")] = IntVal(r.NextID())
			if err := r.Insert(row); err != nil {
				t.Fatal(err)
			}
			if tombstone {
				db.Table("A").MarkDeleted(1)
				db.Table("B").MarkDeleted(0)
			}
			for _, sh := range shapes {
				t.Run(sh.name, func(t *testing.T) {
					b := sh.block()
					got, gotErr := db.ExecuteBlock(b, nil)
					want, wantErr := refRun(db, single(b), nil)
					if (gotErr != nil) != (wantErr != nil) {
						t.Fatalf("error mismatch: executor=%v definition=%v", gotErr, wantErr)
					}
					if gotErr != nil {
						return
					}
					if strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") {
						t.Fatalf("columns %v, want %v", got.Columns, want.Columns)
					}
					if len(impliedAliases(b, db.Cat)) == 0 {
						if err := sameRowsInOrder(got.Rows, want.Rows); err != nil {
							t.Fatalf("executor vs definition: %v", err)
						}
						return
					}
					if g, w := sortedRowKeys(got), sortedRowKeys(want); strings.Join(g, " ") != strings.Join(w, " ") {
						t.Fatalf("rows %v, want %v", g, w)
					}
				})
			}
		})
	}
}

func counterDelta(after, before Counters) Counters {
	return Counters{
		BytesRead:  after.BytesRead - before.BytesRead,
		TuplesRead: after.TuplesRead - before.TuplesRead,
		Probes:     after.Probes - before.Probes,
		Scans:      after.Scans - before.Scans,
		TuplesOut:  after.TuplesOut - before.TuplesOut,
	}
}

// TestAllocsUnionPadding: the union of a narrow and a wide block pads the
// narrow block's rows in place — project carves every row with room for
// the widest block — so the union allocates the same whether the narrow
// block returns a hundred rows or a thousand.
func TestAllocsUnionPadding(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold without the race detector")
	}
	narrow := &sqlast.Block{}
	narrow.AddTable("A", "a")
	narrow.Projects = []sqlast.ColumnRef{{Alias: "a", Column: "x"}}
	wide := &sqlast.Block{}
	wide.AddTable("B", "b")
	wide.Projects = []sqlast.ColumnRef{{Alias: "b", Column: "B_id"}, {Alias: "b", Column: "y"}}
	q := &sqlast.Query{Blocks: []*sqlast.Block{narrow, wide}}
	allocs := func(nA int) float64 {
		db := benchDB(t, 1, nA, 10, 5)
		return testing.AllocsPerRun(20, func() {
			rs, err := db.Execute(q, nil)
			if err != nil || len(rs.Rows) != nA+10 || len(rs.Rows[0]) != 2 {
				t.Fatalf("rows = %d, err = %v", len(rs.Rows), err)
			}
		})
	}
	small, large := allocs(100), allocs(1000)
	if large != small || large > 40 {
		t.Errorf("union allocates %.0f objects padding 1 000 narrow rows, %.0f padding 100; want the same, at most 40", large, small)
	}
}

// TestAllocsLookupProbe: the index-probe hot path must not allocate when
// no probed position is tombstoned — it runs once per intermediate tuple
// of every INL join.
func TestAllocsLookupProbe(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold without the race detector")
	}
	db := NewDatabase(twoTableCatalog(t))
	loadAB(t, db)
	a := db.Table("A")
	probe := IntVal(1)
	if got := testing.AllocsPerRun(200, func() {
		positions, ok := a.Lookup("parent_R", probe)
		if !ok || len(positions) != 3 {
			t.Fatal("unexpected lookup result")
		}
	}); got > 0 {
		t.Errorf("Lookup (no tombstones): %.1f allocs/op, budget 0", got)
	}
	// Tombstoning an unrelated position must not cost the hot path its
	// zero-alloc property either: the dead scan allocates only when a
	// listed position is actually dead.
	a.MarkDeleted(a.NumRows() - 1)
	key := IntVal(1)
	if got := testing.AllocsPerRun(200, func() {
		positions, ok := a.Lookup("A_id", key)
		if !ok || len(positions) != 1 {
			t.Fatal("unexpected keyed lookup result")
		}
	}); got > 0 {
		t.Errorf("Lookup (dead elsewhere): %.1f allocs/op, budget 0", got)
	}
}
