package engine

import (
	"fmt"
	"testing"

	"legodb/internal/relational"
	"legodb/internal/sqlast"
	"legodb/internal/xschema"
)

// twoTableCatalog maps two unrelated child tables under one root, for
// cartesian and cross-filter scenarios: A.x and B.y are INT columns.
func twoTableCatalog(t testing.TB) *relational.Catalog { return pairCatalog(t, "Integer", "Integer") }

// pairCatalog is twoTableCatalog with A.x of type x and B.y of type y.
func pairCatalog(t testing.TB, x, y string) *relational.Catalog {
	t.Helper()
	s := xschema.MustParseSchema(fmt.Sprintf(`
type R = r[ A*<#3>, B*<#3> ]
type A = a[ x[ %s ] ]
type B = b[ y[ %s ] ]`, x, y))
	cat, err := relational.Map(s)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func loadAB(t *testing.T, db *Database) {
	t.Helper()
	for _, spec := range []struct {
		table, col string
		vals       []int64
	}{{"A", "x", []int64{1, 2, 3}}, {"B", "y", []int64{2, 3, 4}}} {
		tbl := db.Table(spec.table)
		for _, v := range spec.vals {
			row := make(Row, len(tbl.Def.Columns))
			row[tbl.ColumnIndex(spec.table+"_id")] = IntVal(tbl.NextID())
			row[tbl.ColumnIndex(spec.col)] = IntVal(v)
			row[tbl.ColumnIndex("parent_R")] = IntVal(1)
			if err := tbl.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCartesianFallback(t *testing.T) {
	db := NewDatabase(twoTableCatalog(t))
	loadAB(t, db)
	b := &sqlast.Block{}
	b.AddTable("A", "a")
	b.AddTable("B", "b")
	b.Projects = []sqlast.ColumnRef{
		{Alias: "a", Column: "x"},
		{Alias: "b", Column: "y"},
	}
	rs, err := db.ExecuteBlock(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 9 {
		t.Fatalf("cartesian rows = %d, want 9", len(rs.Rows))
	}
}

func TestCrossFilterEqualityActsAsJoin(t *testing.T) {
	db := NewDatabase(twoTableCatalog(t))
	loadAB(t, db)
	b := &sqlast.Block{}
	b.AddTable("A", "a")
	b.AddTable("B", "b")
	right := sqlast.ColumnRef{Alias: "b", Column: "y"}
	b.Filters = []sqlast.Filter{{
		Col: sqlast.ColumnRef{Alias: "a", Column: "x"}, Op: sqlast.OpEq, RightCol: &right,
	}}
	b.Projects = []sqlast.ColumnRef{{Alias: "a", Column: "x"}}
	rs, err := db.ExecuteBlock(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 { // x∈{2,3} match y∈{2,3}
		t.Fatalf("value join rows = %v", rs.Rows)
	}
}

func TestCrossFilterInequality(t *testing.T) {
	db := NewDatabase(twoTableCatalog(t))
	loadAB(t, db)
	b := &sqlast.Block{}
	b.AddTable("A", "a")
	b.AddTable("B", "b")
	right := sqlast.ColumnRef{Alias: "b", Column: "y"}
	b.Filters = []sqlast.Filter{{
		Col: sqlast.ColumnRef{Alias: "a", Column: "x"}, Op: sqlast.OpLt, RightCol: &right,
	}}
	b.Projects = []sqlast.ColumnRef{
		{Alias: "a", Column: "x"},
		{Alias: "b", Column: "y"},
	}
	rs, err := db.ExecuteBlock(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	// pairs with x < y: (1,2)(1,3)(1,4)(2,3)(2,4)(3,4) = 6
	if len(rs.Rows) != 6 {
		t.Fatalf("inequality rows = %d, want 6", len(rs.Rows))
	}
}

func TestExecuteUnionTakesWidestColumns(t *testing.T) {
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
	rs, err := db.Execute(&sqlast.Query{Blocks: []*sqlast.Block{narrow, wide}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Columns) != 2 {
		t.Fatalf("columns = %v", rs.Columns)
	}
	if len(rs.Rows) != 6 {
		t.Fatalf("union rows = %d", len(rs.Rows))
	}
	if db.Stats.TuplesOut != 6 {
		t.Fatalf("TuplesOut = %d", db.Stats.TuplesOut)
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{BytesRead: 10, TuplesRead: 2, Probes: 1, Scans: 1, TuplesOut: 3}
	b := Counters{BytesRead: 5, TuplesRead: 1, Probes: 2, Scans: 1, TuplesOut: 1}
	a.Add(b)
	if a.BytesRead != 15 || a.TuplesRead != 3 || a.Probes != 3 || a.Scans != 2 || a.TuplesOut != 4 {
		t.Fatalf("Add = %+v", a)
	}
}

func TestRowCountAndString(t *testing.T) {
	db := NewDatabase(twoTableCatalog(t))
	loadAB(t, db)
	if got := db.RowCount(); got != 6 {
		t.Fatalf("RowCount = %d", got)
	}
	if db.String() == "" {
		t.Fatal("empty summary")
	}
	if db.Table("NoSuch") != nil {
		t.Fatal("phantom table")
	}
}

func TestFilterOnUnknownColumn(t *testing.T) {
	db := NewDatabase(twoTableCatalog(t))
	loadAB(t, db)
	b := &sqlast.Block{}
	b.AddTable("A", "a")
	b.Filters = []sqlast.Filter{{
		Col: sqlast.ColumnRef{Alias: "a", Column: "nosuch"}, Op: sqlast.OpEq,
		Value: sqlast.Literal{IsInt: true, Int: 1},
	}}
	if _, err := db.ExecuteBlock(b, nil); err == nil {
		t.Fatal("unknown filter column accepted")
	}
}

func TestValueStringAndNull(t *testing.T) {
	if Null.String() != "NULL" || !Null.IsNull() {
		t.Fatal("Null misbehaves")
	}
	if IntVal(5).String() != "5" || StrVal("x").String() != "x" {
		t.Fatal("value rendering broken")
	}
}

// TestMixedKindComparisonCoerces pins a.x = b.y over the INT column A.x
// {7, 8} and the CHAR column B.y {"7", "08", "3"} to the one rule in each
// form a block can take it: a declared join, a cross filter applied
// after another join binds both aliases, and an equality filter that
// would be the step's join edge were its columns of one kind. Each form
// compares the integer's decimal string and answers exactly [7 "7"], in
// the executor and in refRun alike; none binds a join by it, and no hash
// key fuses it. The same-alias declared join b.y = b.B_id compares a
// CHAR column with the INT key the same way.
func TestMixedKindComparisonCoerces(t *testing.T) {
	db := NewDatabase(pairCatalog(t, "Integer", "String<#8>"))
	loadKeys(t, db, "A", "x", []Value{IntVal(7), IntVal(8)})
	loadKeys(t, db, "B", "y", []Value{StrVal("7"), StrVal("08"), StrVal("3")})
	x, y := sqlast.ColumnRef{Alias: "a", Column: "x"}, sqlast.ColumnRef{Alias: "b", Column: "y"}
	block := func() *sqlast.Block {
		b := &sqlast.Block{}
		b.AddTable("A", "a")
		b.AddTable("B", "b")
		b.Projects = []sqlast.ColumnRef{x, y}
		return b
	}
	join, cross, filter := block(), block(), block()
	join.Joins = []sqlast.Join{{Left: x, Right: y}}
	cross.Joins = []sqlast.Join{{
		Left:  sqlast.ColumnRef{Alias: "a", Column: "parent_R"},
		Right: sqlast.ColumnRef{Alias: "b", Column: "parent_R"},
	}}
	cross.Filters = []sqlast.Filter{{Col: x, Op: sqlast.OpEq, RightCol: &y}}
	filter.Filters = cross.Filters
	for _, tc := range []struct {
		name string
		b    *sqlast.Block
		plan string
	}{
		{"declared join", join, "scan a -> cartesian b"},
		{"cross filter", cross, "scan a -> hash b"},
		{"equality filter", filter, "scan a -> cartesian b"},
	} {
		p, err := db.planBlock(tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.String(); got != tc.plan {
			t.Errorf("%s: plan %q, want %q", tc.name, got, tc.plan)
		}
		for _, run := range []struct {
			name string
			run  runner
		}{{"executor", (*Database).Execute}, {"refRun", refRun}} {
			rs, err := run.run(db, single(tc.b), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(rs.Rows); got != "[[7 7]]" || rs.Rows[0][1] != StrVal("7") {
				t.Errorf("%s, %s: rows %v, want [7 \"7\"]", tc.name, run.name, got)
			}
		}
	}
	self := &sqlast.Block{}
	self.AddTable("B", "b")
	self.Joins = []sqlast.Join{{Left: y, Right: sqlast.ColumnRef{Alias: "b", Column: "B_id"}}}
	self.Projects = []sqlast.ColumnRef{{Alias: "b", Column: "B_id"}, y}
	if err := sameAsDefinition(db, self, nil); err != nil {
		t.Fatal(err)
	}
	if rs, _ := db.ExecuteBlock(self, nil); fmt.Sprint(rs.Rows) != "[[3 3]]" {
		t.Errorf("b.y = b.B_id: rows %v, want [3 \"3\"]", rs.Rows)
	}
}

// TestConversionRule pins how a literal or parameter converts to the kind
// of the column it is compared with, on Show rows (title CHAR, year
// INT) ("42", 1999), ("042", 7) and ("x", 300): a string against the INT
// year is the integer it spells, space allowed — "300" is 300, so
// year < "300" holds for 7 and not for 1999, and "007" meets 7 as a
// parameter always has — and one that spells none matches no row under
// any operator, != included; an integer against the CHAR title is its
// decimal string, which "42" is and "042" is not. The executor and
// refRun agree on each, and an index start on year answers a value that
// does not convert without a probe.
func TestConversionRule(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	show := db.Table("Show")
	for _, r := range []struct {
		title string
		year  int64
	}{{"42", 1999}, {"042", 7}, {"x", 300}} {
		row := make(Row, len(show.Def.Columns))
		row[show.ColumnIndex("Show_id")] = IntVal(show.NextID())
		row[show.ColumnIndex("title")] = StrVal(r.title)
		row[show.ColumnIndex("year")] = IntVal(r.year)
		if err := show.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	str := func(s string) sqlast.Literal { return sqlast.Literal{Str: s} }
	param := sqlast.Literal{IsParam: true, Param: "c1"}
	type tc struct {
		col    string
		op     sqlast.CmpOp
		lit    sqlast.Literal
		params Params
		want   string // the matching rows' titles
	}
	cases := []tc{
		{"year", sqlast.OpLt, str("300"), nil, "[042]"},
		{"year", sqlast.OpEq, str("007"), nil, "[042]"},
		{"year", sqlast.OpEq, param, Params{"c1": StrVal(" 007 ")}, "[042]"},
		{"title", sqlast.OpEq, intLit(42), nil, "[42]"},
		{"title", sqlast.OpNe, intLit(42), nil, "[042 x]"},
		{"title", sqlast.OpEq, param, Params{"c1": IntVal(42)}, "[42]"},
	}
	for _, op := range allOps {
		cases = append(cases, tc{"year", op, str("x"), nil, "[]"}, tc{"year", op, param, Params{"c1": StrVal("x")}, "[]"})
	}
	for _, indexes := range [][]relational.IndexRef{nil, {{Table: "Show", Column: "year"}}} {
		if err := db.SetIndexes(indexes); err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			b := &sqlast.Block{}
			b.AddTable("Show", "s")
			b.Filters = []sqlast.Filter{{Col: sqlast.ColumnRef{Alias: "s", Column: c.col}, Op: c.op, Value: c.lit}}
			b.Projects = []sqlast.ColumnRef{{Alias: "s", Column: "title"}}
			name := fmt.Sprintf("%s with %v, indexes %v", b.Filters[0], c.params, indexes)
			before := db.Stats
			rs, err := db.ExecuteBlock(b, c.params)
			if err != nil {
				t.Fatal(err)
			}
			d := counterDelta(db.Stats, before)
			var titles []string
			for _, r := range rs.Rows {
				titles = append(titles, r[0].Str)
			}
			if got := fmt.Sprint(titles); got != c.want {
				t.Errorf("%s: rows %s, want %s", name, got, c.want)
			}
			if err := sameAsDefinition(db, b, c.params); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			// The index start answers = on year: one probe for a value
			// that converts, none for one that does not.
			if indexes != nil && c.col == "year" && c.op == sqlast.OpEq {
				if want := int64(len(titles)); d.Probes != want || d.Scans != 0 {
					t.Errorf("%s: %d probes and %d scans, want %d and 0", name, d.Probes, d.Scans, want)
				}
			}
		}
	}
}
