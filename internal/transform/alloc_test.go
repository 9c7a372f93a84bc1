package transform

import (
	"testing"

	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

// TestAllocsApply bounds what one greedy move allocates: Apply copies
// the schema's Names and Types map and the one definition it rewrites,
// never the definitions the candidate shares with its base. Budgets
// hold on plain builds only; CI enforces them in its plain-build step.
func TestAllocsApply(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold without the race detector")
	}
	annotated := imdb.Schema()
	if err := xstats.Annotate(annotated, imdb.Stats()); err != nil {
		t.Fatal(err)
	}
	outlined, err := pschema.InitialOutlined(annotated)
	if err != nil {
		t.Fatal(err)
	}
	inlined, err := pschema.AllInlined(annotated)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what   string
		base   *xschema.Schema
		kind   Kind
		budget float64
	}{
		{"inline on all-outlined", outlined, KindInline, 38},
		{"outline on all-inlined", inlined, KindOutline, 45},
	} {
		tr := Candidates(c.base, Options{Kinds: []Kind{c.kind}})[0]
		got := testing.AllocsPerRun(100, func() {
			if _, err := Apply(c.base, tr); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.budget {
			t.Errorf("Apply(%s) %s: %.1f allocs/op, budget %.1f", tr, c.what, got, c.budget)
		}
	}
}
