package xquery_test

import (
	"testing"

	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

// TestAllocsTranslate pins the allocations of translating the Appendix C
// workload (Q1–Q20): translation runs on every query-cache miss of the
// search, and branching a translation context must not copy what the
// branch keeps. Skipped under the race detector, whose instrumentation
// allocates; CI runs it in the plain-build allocation step.
func TestAllocsTranslate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold without the race detector")
	}
	var queries []*xquery.Query
	for _, name := range imdb.QueryNames()[:20] {
		queries = append(queries, imdb.Query(name))
	}
	for _, tc := range []struct {
		name   string
		build  func(*xschema.Schema) (*xschema.Schema, error)
		budget float64
	}{
		{"all-inlined", pschema.AllInlined, 1770},
		{"all-outlined", pschema.InitialOutlined, 2895},
	} {
		s := imdb.Schema()
		if err := xstats.Annotate(s, imdb.Stats()); err != nil {
			t.Fatal(err)
		}
		ps, err := tc.build(s)
		if err != nil {
			t.Fatal(err)
		}
		cat, err := relational.Map(ps)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(50, func() {
			for _, q := range queries {
				if _, _, err := xquery.TranslateDeps(q, ps, cat); err != nil {
					t.Fatal(err)
				}
			}
		})
		if got > tc.budget {
			t.Errorf("%s: %.0f allocs per workload translation, budget %.0f", tc.name, got, tc.budget)
		}
	}
}
