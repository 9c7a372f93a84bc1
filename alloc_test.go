package legodb

import (
	"context"
	"testing"
)

// TestAllocsPreparedHit: preparing a kept text allocates nothing — no
// parse, no translation, no plan, no shape key.
func TestAllocsPreparedHit(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	_, _, store := indexFixture(t, 40)
	if _, err := store.Prepare(yearQuery); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := store.Prepare(yearQuery); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Prepare hit allocates %v times, want 0", got)
	}
}

// TestAllocsRunValuesPoint pins what a year point lookup allocates
// through a prepared plan: the bound parameters, the execution state
// and the answer, nothing per block planned or per parameter resolved.
func TestAllocsRunValuesPoint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	_, _, store := indexFixture(t, 40)
	pq, err := store.Prepare(yearQuery)
	if err != nil {
		t.Fatal(err)
	}
	years, err := store.Query(`FOR $v IN imdb/show RETURN $v/year`, nil)
	if err != nil || len(years.Rows) == 0 {
		t.Fatalf("years: %v", err)
	}
	params := Params{"c1": years.Rows[0][0]}
	ctx := context.Background()
	if rs, err := pq.RunValues(ctx, params); err != nil || len(rs.Rows) == 0 {
		t.Fatalf("the lookup answers nothing: %v", err)
	}
	const budget = 18
	if got := testing.AllocsPerRun(200, func() {
		if _, err := pq.RunValues(ctx, params); err != nil {
			t.Fatal(err)
		}
	}); got > budget {
		t.Errorf("RunValues allocates %v times, budget %d", got, budget)
	}
}
