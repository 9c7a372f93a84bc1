package engine

import (
	"testing"

	"legodb/internal/relational"
	"legodb/internal/sqlast"
	"legodb/internal/xschema"
)

func testCatalog(t *testing.T) *relational.Catalog {
	t.Helper()
	s := xschema.MustParseSchema(`
type IMDB = imdb[ Show{0,*}<#3> ]
type Show = show[ title[ String<#20,#3> ], year[ Integer ] ]`)
	cat, err := relational.Map(s)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestInsertAndIndexes(t *testing.T) {
	cat := testCatalog(t)
	db := NewDatabase(cat)
	show := db.Table("Show")
	for i := int64(1); i <= 3; i++ {
		id := show.NextID()
		row := make(Row, len(show.Def.Columns))
		row[show.ColumnIndex("Show_id")] = IntVal(id)
		row[show.ColumnIndex("title")] = StrVal("t")
		row[show.ColumnIndex("year")] = IntVal(1990 + i)
		row[show.ColumnIndex("parent_IMDB")] = IntVal(1)
		if err := show.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if got := show.NumRows(); got != 3 {
		t.Fatalf("rows = %d", got)
	}
	positions, ok := show.Lookup("Show_id", IntVal(2))
	if !ok || len(positions) != 1 {
		t.Fatalf("id lookup = %v, %v", positions, ok)
	}
	positions, ok = show.Lookup("parent_IMDB", IntVal(1))
	if !ok || len(positions) != 3 {
		t.Fatalf("fk lookup = %v, %v", positions, ok)
	}
	if _, ok := show.Lookup("title", StrVal("t")); ok {
		t.Fatal("data column should not be indexed")
	}
	if err := show.Insert(Row{IntVal(9)}); err == nil {
		t.Fatal("short row accepted")
	}
}

// TestInsertRefusesWrongKind: a non-NULL cell of the other kind than its
// column's catalog type — a string in the INT year, an integer in the
// CHAR title — is refused with an error, and the table is left as it
// was: no row, no index entry, no key hash. NULL is every column's.
func TestInsertRefusesWrongKind(t *testing.T) {
	show := NewDatabase(testCatalog(t)).Table("Show")
	row := func(title, year Value) Row {
		r := make(Row, len(show.Def.Columns))
		r[show.ColumnIndex("Show_id")] = IntVal(7)
		r[show.ColumnIndex("title")] = title
		r[show.ColumnIndex("year")] = year
		return r
	}
	for _, r := range []Row{row(StrVal("t"), StrVal("1999")), row(IntVal(7), IntVal(1999))} {
		if err := show.Insert(r); err == nil {
			t.Fatalf("Insert(%v) accepted a cell of the wrong kind", r)
		}
		if n := show.NumRows(); n != 0 {
			t.Fatalf("refused Insert(%v) left %d rows", r, n)
		}
		if pos, _ := show.Lookup("Show_id", IntVal(7)); len(pos) != 0 {
			t.Fatalf("refused Insert(%v) left key index entries %v", r, pos)
		}
		for ci := range show.heap {
			if len(show.heap[ci]) != 0 || len(show.heapHash[ci]) != 0 {
				t.Fatalf("refused Insert(%v) left cells in column %d", r, ci)
			}
		}
	}
	if err := show.Insert(row(Null, Null)); err != nil || show.NumRows() != 1 {
		t.Fatalf("NULL cells: %v, %d rows", err, show.NumRows())
	}
}

// TestRowIsACopy: the heap tail is column-major, so Row hands out a
// fresh tuple, and Insert copies its argument into the columns. Writing
// to either afterwards leaves the table as it was, for heap positions
// and for the positions of a frozen columnar base alike.
func TestRowIsACopy(t *testing.T) {
	cat := testCatalog(t)
	fill := func(show *Table, titles ...string) {
		for _, title := range titles {
			row := make(Row, len(show.Def.Columns))
			row[show.ColumnIndex("Show_id")] = IntVal(show.NextID())
			row[show.ColumnIndex("title")] = StrVal(title)
			if err := show.Insert(row); err != nil {
				t.Fatal(err)
			}
			row[show.ColumnIndex("title")] = StrVal("inserted row reused")
		}
	}
	src := NewDatabase(cat).Table("Show")
	fill(src, "a", "b")
	show := NewDatabase(cat).Table("Show")
	base, err := NewColumnBase(src.SnapshotColumns(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := show.SetColumnBase(base); err != nil {
		t.Fatal(err)
	}
	fill(show, "c", "d")
	title := show.ColumnIndex("title")
	for pos, want := range []string{"a", "b", "c", "d"} {
		if got := show.Cell(pos, title); got != StrVal(want) {
			t.Fatalf("position %d holds %v before any write, want %q", pos, got, want)
		}
		r := show.Row(pos)
		r[title] = StrVal("written")
		if got := show.Cell(pos, title); got != StrVal(want) {
			t.Fatalf("writing to Row(%d) changed the table: %v, want %q", pos, got, want)
		}
		if got := show.Row(pos)[title]; got != StrVal(want) {
			t.Fatalf("Row(%d) after a write to an earlier copy: %v, want %q", pos, got, want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntVal(1), IntVal(2), -1},
		{IntVal(2), IntVal(2), 0},
		{StrVal("a"), StrVal("b"), -1},
		{Null, IntVal(0), -1},
		{IntVal(5), StrVal("5"), -1}, // kinds ordered: int before string
	}
	for _, c := range cases {
		got := Compare(c.a, c.b)
		switch {
		case c.want < 0 && got >= 0, c.want == 0 && got != 0, c.want > 0 && got <= 0:
			t.Errorf("Compare(%v, %v) = %d, want sign %d", c.a, c.b, got, c.want)
		}
	}
}

func loadShows(t *testing.T, db *Database) {
	t.Helper()
	imdbT := db.Table("IMDB")
	row := make(Row, len(imdbT.Def.Columns))
	row[imdbT.ColumnIndex("IMDB_id")] = IntVal(imdbT.NextID())
	if err := imdbT.Insert(row); err != nil {
		t.Fatal(err)
	}
	show := db.Table("Show")
	data := []struct {
		title string
		year  int64
	}{{"Fugitive", 1993}, {"X Files", 1994}, {"Alien", 1994}}
	for _, d := range data {
		row := make(Row, len(show.Def.Columns))
		row[show.ColumnIndex("Show_id")] = IntVal(show.NextID())
		row[show.ColumnIndex("title")] = StrVal(d.title)
		row[show.ColumnIndex("year")] = IntVal(d.year)
		row[show.ColumnIndex("parent_IMDB")] = IntVal(1)
		if err := show.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExecuteFilterScan(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	loadShows(t, db)
	b := &sqlast.Block{}
	b.AddTable("Show", "s")
	b.Filters = []sqlast.Filter{{
		Col:   sqlast.ColumnRef{Alias: "s", Column: "year"},
		Op:    sqlast.OpEq,
		Value: sqlast.Literal{IsInt: true, Int: 1994},
	}}
	b.Projects = []sqlast.ColumnRef{{Alias: "s", Column: "title"}}
	rs, err := db.ExecuteBlock(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestExecuteJoinINLThroughKey(t *testing.T) {
	// Show is filtered first; IMDB joins through its key column, which is
	// indexed, so the executor probes instead of scanning. Projecting
	// i.IMDB_id keeps the join: an IMDB alias named only by its children's
	// parent key is implied by the tree and never joined.
	db := NewDatabase(testCatalog(t))
	loadShows(t, db)
	b := &sqlast.Block{}
	b.AddTable("Show", "s")
	b.AddTable("IMDB", "i")
	b.Filters = []sqlast.Filter{{
		Col:   sqlast.ColumnRef{Alias: "s", Column: "title"},
		Op:    sqlast.OpEq,
		Value: sqlast.Literal{Str: "Fugitive"},
	}}
	b.Joins = []sqlast.Join{{
		Left:  sqlast.ColumnRef{Alias: "s", Column: "parent_IMDB"},
		Right: sqlast.ColumnRef{Alias: "i", Column: "IMDB_id"},
	}}
	b.Projects = []sqlast.ColumnRef{{Alias: "s", Column: "title"}, {Alias: "i", Column: "IMDB_id"}}
	before := db.Stats
	rs, err := db.ExecuteBlock(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	if db.Stats.Probes <= before.Probes {
		t.Fatal("expected index probes when joining through the key")
	}
}

func TestExecuteJoinFKUsesHash(t *testing.T) {
	// Joining into Show through its FK column runs as a hash join (scan),
	// not probes, mirroring the optimizer's plan space. i.IMDB_id is
	// projected so the join is not implied away.
	db := NewDatabase(testCatalog(t))
	loadShows(t, db)
	b := &sqlast.Block{}
	b.AddTable("IMDB", "i")
	b.AddTable("Show", "s")
	b.Joins = []sqlast.Join{{
		Left:  sqlast.ColumnRef{Alias: "s", Column: "parent_IMDB"},
		Right: sqlast.ColumnRef{Alias: "i", Column: "IMDB_id"},
	}}
	b.Projects = []sqlast.ColumnRef{{Alias: "s", Column: "title"}, {Alias: "i", Column: "IMDB_id"}}
	before := db.Stats
	rs, err := db.ExecuteBlock(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	if db.Stats.Probes != before.Probes {
		t.Fatal("FK join should not probe")
	}
	if db.Stats.Scans != before.Scans+2 {
		t.Fatalf("expected two scans, got %d", db.Stats.Scans-before.Scans)
	}
}

func TestExecuteParamBinding(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	loadShows(t, db)
	b := &sqlast.Block{}
	b.AddTable("Show", "s")
	b.Filters = []sqlast.Filter{{
		Col:   sqlast.ColumnRef{Alias: "s", Column: "title"},
		Op:    sqlast.OpEq,
		Value: sqlast.Literal{IsParam: true, Param: "c1"},
	}}
	b.Projects = []sqlast.ColumnRef{{Alias: "s", Column: "year"}}
	rs, err := db.ExecuteBlock(b, Params{"c1": StrVal("Alien")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int != 1994 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if _, err := db.ExecuteBlock(b, nil); err == nil {
		t.Fatal("missing parameter accepted")
	}
}

func TestExecuteRangeOps(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	loadShows(t, db)
	ops := []struct {
		op   sqlast.CmpOp
		want int
	}{
		{sqlast.OpLt, 1}, {sqlast.OpLe, 3}, {sqlast.OpGt, 0},
		{sqlast.OpGe, 2}, {sqlast.OpNe, 1}, {sqlast.OpEq, 2},
	}
	for _, c := range ops {
		b := &sqlast.Block{}
		b.AddTable("Show", "s")
		b.Filters = []sqlast.Filter{{
			Col:   sqlast.ColumnRef{Alias: "s", Column: "year"},
			Op:    c.op,
			Value: sqlast.Literal{IsInt: true, Int: 1994},
		}}
		b.Projects = []sqlast.ColumnRef{{Alias: "s", Column: "title"}}
		rs, err := db.ExecuteBlock(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != c.want {
			t.Errorf("op %v: rows = %d, want %d", c.op, len(rs.Rows), c.want)
		}
	}
}

func TestNullNeverMatches(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	show := db.Table("Show")
	row := make(Row, len(show.Def.Columns))
	row[show.ColumnIndex("Show_id")] = IntVal(show.NextID())
	// title and year stay NULL.
	if err := show.Insert(row); err != nil {
		t.Fatal(err)
	}
	for _, op := range []sqlast.CmpOp{sqlast.OpEq, sqlast.OpNe, sqlast.OpLt} {
		b := &sqlast.Block{}
		b.AddTable("Show", "s")
		b.Filters = []sqlast.Filter{{
			Col:   sqlast.ColumnRef{Alias: "s", Column: "year"},
			Op:    op,
			Value: sqlast.Literal{IsInt: true, Int: 1990},
		}}
		rs, err := db.ExecuteBlock(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 0 {
			t.Errorf("op %v matched NULL", op)
		}
	}
}

func TestCountersAccumulate(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	loadShows(t, db)
	b := &sqlast.Block{}
	b.AddTable("Show", "s")
	b.Projects = []sqlast.ColumnRef{{Alias: "s", Column: "title"}}
	if _, err := db.Execute(&sqlast.Query{Blocks: []*sqlast.Block{b}}, nil); err != nil {
		t.Fatal(err)
	}
	if db.Stats.Scans != 1 || db.Stats.TuplesRead != 3 || db.Stats.BytesRead <= 0 {
		t.Fatalf("counters = %+v", db.Stats)
	}
}

func TestExecuteErrors(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	if _, err := db.ExecuteBlock(&sqlast.Block{}, nil); err == nil {
		t.Error("empty block accepted")
	}
	b := &sqlast.Block{}
	b.AddTable("NoSuch", "x")
	if _, err := db.ExecuteBlock(b, nil); err == nil {
		t.Error("unknown table accepted")
	}
	b2 := &sqlast.Block{}
	b2.AddTable("Show", "s")
	b2.Projects = []sqlast.ColumnRef{{Alias: "s", Column: "nosuch"}}
	loadShows(t, db)
	if _, err := db.ExecuteBlock(b2, nil); err == nil {
		t.Error("unknown projection column accepted")
	}
}
