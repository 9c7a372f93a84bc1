package engine

import (
	"testing"

	"legodb/internal/relational"
	"legodb/internal/sqlast"
	"legodb/internal/xschema"
)

// The engine's microbenchmarks: the physical shapes the executor runs
// (filtered scan, index nested-loop through a key, hash join on data
// columns between two large relations, the same join probed by a single
// tuple, and an index start lookup).

// benchDB builds R (nR rows) with children A (nA rows) and B (nB rows);
// A.x and B.y cycle through `values` distinct integers, A.parent_R
// spreads across the R rows.
func benchDB(tb testing.TB, nR, nA, nB, values int, indexes ...relational.IndexRef) *Database {
	tb.Helper()
	s := xschema.MustParseSchema(`
type R = r[ A*<#3>, B*<#3> ]
type A = a[ x[ Integer ] ]
type B = b[ y[ Integer ] ]`)
	cat, err := relational.Map(s)
	if err != nil {
		tb.Fatal(err)
	}
	cat.SetIndexes(indexes)
	db := NewDatabase(cat)
	r := db.Table("R")
	for i := 0; i < nR; i++ {
		row := make(Row, len(r.Def.Columns))
		row[r.ColumnIndex("R_id")] = IntVal(r.NextID())
		if err := r.Insert(row); err != nil {
			tb.Fatal(err)
		}
	}
	for _, spec := range []struct {
		table, col string
		n          int
	}{{"A", "x", nA}, {"B", "y", nB}} {
		t := db.Table(spec.table)
		for i := 0; i < spec.n; i++ {
			row := make(Row, len(t.Def.Columns))
			row[t.ColumnIndex(spec.table+"_id")] = IntVal(t.NextID())
			row[t.ColumnIndex(spec.col)] = IntVal(int64(i % values))
			row[t.ColumnIndex("parent_R")] = IntVal(int64(i%nR) + 1)
			if err := t.Insert(row); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return db
}

func scanBlock() *sqlast.Block {
	b := &sqlast.Block{}
	b.AddTable("A", "a")
	b.Filters = []sqlast.Filter{{
		Col:   sqlast.ColumnRef{Alias: "a", Column: "x"},
		Op:    sqlast.OpGe,
		Value: sqlast.Literal{IsInt: true, Int: 500},
	}}
	b.Projects = []sqlast.ColumnRef{{Alias: "a", Column: "x"}}
	return b
}

// pointBlock selects the A rows with x = 7.
func pointBlock() *sqlast.Block {
	b := scanBlock()
	b.Filters[0].Op, b.Filters[0].Value.Int = sqlast.OpEq, 7
	return b
}

func inlBlock() *sqlast.Block {
	b := &sqlast.Block{}
	b.AddTable("A", "a")
	b.AddTable("R", "r")
	b.Joins = []sqlast.Join{{
		Left:  sqlast.ColumnRef{Alias: "a", Column: "parent_R"},
		Right: sqlast.ColumnRef{Alias: "r", Column: "R_id"},
	}}
	b.Projects = []sqlast.ColumnRef{{Alias: "a", Column: "x"}, {Alias: "r", Column: "R_id"}}
	return b
}

func hashJoinBlock() *sqlast.Block {
	b := &sqlast.Block{}
	b.AddTable("A", "a")
	b.AddTable("B", "b")
	right := sqlast.ColumnRef{Alias: "b", Column: "y"}
	b.Filters = []sqlast.Filter{{
		Col: sqlast.ColumnRef{Alias: "a", Column: "x"}, Op: sqlast.OpEq, RightCol: &right,
	}}
	b.Projects = []sqlast.ColumnRef{{Alias: "a", Column: "x"}, {Alias: "b", Column: "B_id"}}
	return b
}

func benchBlock(b *testing.B, db *Database, block *sqlast.Block) {
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.ExecuteBlock(block, nil)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(rs.Rows)
	}
	b.ReportMetric(float64(rows), "rows/op")
}

func BenchmarkExecuteBlockScan(b *testing.B) {
	db := benchDB(b, 16, 50000, 0, 1000)
	benchBlock(b, db, scanBlock())
}

func BenchmarkExecuteBlockINL(b *testing.B) {
	db := benchDB(b, 64, 20000, 0, 1000)
	benchBlock(b, db, inlBlock())
}

func BenchmarkExecuteBlockHashJoin(b *testing.B) {
	db := benchDB(b, 16, 10000, 10000, 5000)
	benchBlock(b, db, hashJoinBlock())
}

// One A tuple joined to 10 000 B rows, two of which match: the shape of a
// point lookup that then collects its children.
func BenchmarkHashJoinPointProbe(b *testing.B) {
	db := benchDB(b, 1, 1, 10000, 5000)
	benchBlock(b, db, hashJoinBlock())
}

// Two of 50 000 A rows have x = 7: the start relation of a point lookup,
// bound by scanning under the key-only design and by one probe once the
// design indexes the column.
func BenchmarkIndexStartLookup(b *testing.B) {
	b.Run("scan", func(b *testing.B) {
		benchBlock(b, benchDB(b, 16, 50000, 0, 25000), pointBlock())
	})
	b.Run("index", func(b *testing.B) {
		benchBlock(b, benchDB(b, 16, 50000, 0, 25000, relational.IndexRef{Table: "A", Column: "x"}), pointBlock())
	})
}
