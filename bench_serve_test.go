package legodb

import (
	"context"
	"io"
	"log/slog"
	"testing"

	"legodb/internal/imdb"
	"legodb/internal/relational"
)

// analyticStore opens the serve-analytic tenant in process: the fixed
// all-inlined configuration advised for year lookups over 16 documents,
// loaded with 16 generated documents of 50 shows each (seed 1).
func analyticStore(b *testing.B) *Store {
	b.Helper()
	eng, err := New(imdb.SchemaText)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.SetStatisticsText(imdb.StatsText); err != nil {
		b.Fatal(err)
	}
	year := `FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title, $v/year`
	if err := eng.AddQuery("year", year, 1); err != nil {
		b.Fatal(err)
	}
	advice, err := eng.EvaluateFixed("all-inlined", AdviseOptions{Documents: 16})
	if err != nil {
		b.Fatal(err)
	}
	store, err := advice.Open()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := store.Load(imdb.Generate(imdb.GenOptions{Shows: 50, Seed: 1000 + int64(i)})); err != nil {
			b.Fatal(err)
		}
	}
	return store
}

// pinIndexes installs a secondary-index set on a store, as a retune does.
func pinIndexes(b *testing.B, s *Store, refs []relational.IndexRef) {
	b.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.db.SetIndexes(refs); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServeAnalytic runs the serve-analytic queries — the four-way
// joins Q12 and Q13 and the publishes Q15 and Q16 — through
// PreparedQuery.RunValues on that workload's corpus, without HTTP or
// row encoding: the engine's share of a served request. It runs each
// under two index sets: key-only, and the set the store's own retune
// installs after serving that traffic. The store would retune the
// key-only set away after 1 024 requests; the benchmark puts it back,
// off the clock, whenever it does. Profile the store's join kernel with
// -cpuprofile on it.
func BenchmarkServeAnalytic(b *testing.B) {
	// The retunes log a line each; keep them out of the benchmark's output.
	logger := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	b.Cleanup(func() { slog.SetDefault(logger) })
	store := analyticStore(b)
	sets := []struct {
		name string
		refs []relational.IndexRef
	}{
		{"key-only", nil},
		{"retuned", []relational.IndexRef{
			{Table: "Show", Column: "title"}, {Table: "Aka", Column: "parent_Show"}, {Table: "Played", Column: "parent_Actor"},
		}},
	}
	for _, set := range sets {
		for _, name := range []string{"Q12", "Q13", "Q15", "Q16"} {
			b.Run(set.name+"/"+name, func(b *testing.B) {
				pq, err := store.Prepare(imdb.Query(name).String())
				if err != nil {
					b.Fatal(err)
				}
				pinIndexes(b, store, set.refs)
				retunes := store.IndexRetunes()
				rows := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rs, err := pq.RunValues(context.Background(), nil)
					if err != nil {
						b.Fatal(err)
					}
					rows = len(rs.Rows)
					if store.IndexRetunes() != retunes {
						b.StopTimer()
						pinIndexes(b, store, set.refs)
						retunes = store.IndexRetunes()
						b.StartTimer()
					}
				}
				b.ReportMetric(float64(rows), "rows/op")
			})
		}
	}
}
