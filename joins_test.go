package legodb

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"legodb/internal/imdb"
)

// openFixed opens an empty store in a fixed configuration of the IMDB
// schema.
func openFixed(t *testing.T, config string) *Store {
	t.Helper()
	eng, err := New(imdb.SchemaText)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetStatisticsText(imdb.StatsText); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddQuery("Q12", imdb.Query("Q12").String(), 1); err != nil {
		t.Fatal(err)
	}
	advice, err := eng.EvaluateFixed(config)
	if err != nil {
		t.Fatal(err)
	}
	store, err := advice.Open()
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestOutlinedJoinsServable: the value joins Q12 and Q13 answer on the
// all-outlined configuration — every element its own relation, so both
// name and title equalities sit many joins apart — within a request's
// deadline, with the row multisets the all-inlined store returns. Joining
// in FROM order and filtering afterwards took this layout seconds per
// document.
func TestOutlinedJoinsServable(t *testing.T) {
	inlined, outlined := openFixed(t, "all-inlined"), openFixed(t, "all-outlined")
	for seed := int64(1); seed <= 4; seed++ {
		doc := imdb.Generate(imdb.GenOptions{Shows: 50, Seed: seed})
		for _, s := range []*Store{inlined, outlined} {
			if err := s.Load(doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	rowKeys := func(r *Result) []string {
		keys := make([]string, len(r.Rows))
		for i, row := range r.Rows {
			keys[i] = strings.Join(row, "\x00")
		}
		slices.Sort(keys)
		return keys
	}
	for _, name := range []string{"Q12", "Q13"} {
		text := imdb.Query(name).String()
		want, err := inlined.Query(text, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		got, err := outlined.QueryContext(ctx, text, nil)
		cancel()
		if err != nil {
			t.Fatalf("%s on all-outlined: %v", name, err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("%s returns no rows: the corpus does not exercise the join", name)
		}
		if !slices.Equal(rowKeys(got), rowKeys(want)) {
			t.Fatalf("%s: all-outlined returns %d rows, all-inlined %d, not the same multiset", name, len(got.Rows), len(want.Rows))
		}
	}
}
