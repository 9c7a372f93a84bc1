package relational_test

import (
	"testing"

	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/transform"
	"legodb/internal/xstats"
)

// TestAllocsMapDelta bounds a warm Mapper's re-map of a one-rewrite
// candidate: every table comes from the memo, so what is left is the
// catalog itself, the edge walk and the cardinalities. Budgets hold on
// plain builds only; CI enforces them in its plain-build step.
func TestAllocsMapDelta(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold without the race detector")
	}
	annotated := imdb.Schema()
	if err := xstats.Annotate(annotated, imdb.Stats()); err != nil {
		t.Fatal(err)
	}
	base, err := pschema.InitialOutlined(annotated)
	if err != nil {
		t.Fatal(err)
	}
	next, err := transform.Apply(base, transform.Candidates(base, transform.Options{Kinds: []transform.Kind{transform.KindInline}})[0])
	if err != nil {
		t.Fatal(err)
	}
	mp := relational.NewMapper(relational.Options{})
	if _, err := mp.Map(base, nil); err != nil {
		t.Fatal(err)
	}
	digests := next.TypeDigests()
	const budget = 36
	got := testing.AllocsPerRun(100, func() {
		if _, err := mp.Map(next, digests); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("Mapper.Map of a one-rewrite candidate: %.1f allocs/op, budget %d", got, budget)
	}
}
