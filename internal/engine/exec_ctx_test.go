package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"legodb/internal/sqlast"
)

// bigShowDB loads n shows so a self-cartesian produces n² pairs — large
// enough that a cancelled execution must stop mid-plan rather than run
// to completion.
func bigShowDB(t *testing.T, n int64) *Database {
	t.Helper()
	db := NewDatabase(testCatalog(t))
	imdbT := db.Table("IMDB")
	row := make(Row, len(imdbT.Def.Columns))
	row[imdbT.ColumnIndex("IMDB_id")] = IntVal(imdbT.NextID())
	if err := imdbT.Insert(row); err != nil {
		t.Fatal(err)
	}
	show := db.Table("Show")
	for i := int64(0); i < n; i++ {
		row := make(Row, len(show.Def.Columns))
		row[show.ColumnIndex("Show_id")] = IntVal(show.NextID())
		row[show.ColumnIndex("title")] = StrVal("t")
		row[show.ColumnIndex("year")] = IntVal(1900 + i%100)
		row[show.ColumnIndex("parent_IMDB")] = IntVal(1)
		if err := show.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func cartesianBlock() *sqlast.Block {
	b := &sqlast.Block{}
	b.AddTable("Show", "a")
	b.AddTable("Show", "b")
	b.Projects = []sqlast.ColumnRef{
		{Alias: "a", Column: "title"},
		{Alias: "b", Column: "year"},
	}
	return b
}

func TestExecuteContextAlreadyCancelled(t *testing.T) {
	db := bigShowDB(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ExecuteBlockContext(ctx, cartesianBlock(), nil); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestExecuteContextDeadlineStopsMidPlan gives a huge cartesian a tiny
// deadline: the executor must notice at a loop boundary and abort with
// the context error long before producing the n² result.
func TestExecuteContextDeadlineStopsMidPlan(t *testing.T) {
	db := bigShowDB(t, 3000) // 9M pairs: far more work than 5ms allows
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := db.ExecuteBlockContext(ctx, cartesianBlock(), nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// Generous bound: the point is that the executor polled the context
	// at chunk granularity instead of finishing the plan.
	if elapsed > 2*time.Second {
		t.Fatalf("aborted after %v, cancellation not honored mid-plan", elapsed)
	}
}
