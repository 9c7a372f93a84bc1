package engine_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"legodb/internal/engine"
	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/shred"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

// This file is the batch-vs-rows differential harness the batch executor
// ships with: for every storage configuration × workload query × binding
// it runs both executors on the same shredded IMDB data and requires
// identical results (as sorted multisets) and bit-identical Counters
// deltas. The query set is imdb.QueryNames(), the union of the fig10
// lookup/publish workloads (Q1..Q20) and the Section 2 / fig11 mixed
// workload queries (F1..F4). The corpus runs twice — once live, once
// after tombstoning rows in every table — so the dead-row paths of
// scans, probes and hash builds are differentially covered too.

// diffConfig names a storage configuration of the annotated schema.
type diffConfig struct {
	name string
	// shows sizes the generated document: the fully outlined
	// configuration multiplies intermediate results on the deep-join
	// queries (every element is its own relation), so it runs on a
	// smaller document to keep the reference executor's wall clock sane.
	shows int
	build func(*xschema.Schema) (*xschema.Schema, error)
}

func diffConfigs() []diffConfig {
	return []diffConfig{
		{"all-inlined", 30, pschema.AllInlined},
		{"all-outlined", 10, pschema.InitialOutlined},
		{"inlined-with-unions", 30, func(s *xschema.Schema) (*xschema.Schema, error) {
			return pschema.InitialInlined(s, pschema.InlineOptions{})
		}},
	}
}

// buildDiffDB generates an IMDB document, shreds it into the given
// configuration, and returns the database plus the document values the
// parameter bindings draw from.
func buildDiffDB(t testing.TB, cfg diffConfig, seed int64) (*engine.Database, *xschema.Schema, *relational.Catalog, engine.Params, engine.Params) {
	t.Helper()
	doc := imdb.Generate(imdb.GenOptions{Shows: cfg.shows, Seed: seed})
	s := imdb.Schema()
	if err := xstats.Annotate(s, xstats.Collect(doc)); err != nil {
		t.Fatal(err)
	}
	ps, err := cfg.build(s)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := relational.Map(ps)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase(cat)
	if err := shred.New(ps, cat, db).Shred(doc); err != nil {
		t.Fatal(err)
	}

	title := doc.Path("show", "title")[0].Text
	year := doc.Path("show", "year")[0].Text
	name := ""
	if a := doc.Path("actor", "name"); len(a) > 0 {
		name = a[0].Text
	}
	gd := ""
	if g := doc.Path("show", "episodes", "guest_director"); len(g) > 0 {
		gd = g[0].Text
	}
	// Two binding sets: one aimed at matching document values (titles,
	// names), one binding everything to the year digits — which hits
	// year filters and exercises non-matching and mixed-kind paths on
	// the string-valued ones.
	matching := engine.Params{
		"c1": engine.StrVal(title),
		"c2": engine.StrVal(title),
		"c4": engine.StrVal(gd),
	}
	if name != "" {
		matching["c1"] = engine.StrVal(name)
	}
	years := engine.Params{
		"c1": engine.StrVal(year),
		"c2": engine.StrVal(year),
		"c4": engine.StrVal(year),
	}
	return db, ps, cat, matching, years
}

func rowMultiset(rs *engine.ResultSet) []string {
	keys := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		var b strings.Builder
		for _, v := range r {
			switch v.Kind {
			case engine.NullValue:
				b.WriteString("|N")
			case engine.IntValue:
				fmt.Fprintf(&b, "|i%d", v.Int)
			default:
				b.WriteString("|s")
				b.WriteString(v.Str)
			}
		}
		keys[i] = b.String()
	}
	sort.Strings(keys)
	return keys
}

func statsDelta(after, before engine.Counters) engine.Counters {
	return engine.Counters{
		BytesRead:  after.BytesRead - before.BytesRead,
		TuplesRead: after.TuplesRead - before.TuplesRead,
		Probes:     after.Probes - before.Probes,
		Scans:      after.Scans - before.Scans,
		TuplesOut:  after.TuplesOut - before.TuplesOut,
	}
}

// TestBatchRowDifferentialIMDB fails on any divergence between the two
// executors: error presence/message, column list, row multiset, or any
// counter delta (compared bit-identically — both paths accumulate floats
// in the same order).
func TestBatchRowDifferentialIMDB(t *testing.T) {
	for _, cfg := range diffConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			db, ps, cat, matching, years := buildDiffDB(t, cfg, 7)
			paramSets := []struct {
				name string
				p    engine.Params
			}{{"matching", matching}, {"years", years}}

			checkQueries := func(t *testing.T) {
				translated := 0
				for _, qn := range imdb.QueryNames() {
					sq, err := xquery.Translate(imdb.Query(qn), ps, cat)
					if err != nil {
						// Not every query targets paths every configuration
						// exposes; the ones that translate are the corpus.
						continue
					}
					translated++
					for _, pset := range paramSets {
						db.Exec = engine.Options{}
						before := db.Stats
						rsB, errB := db.Execute(sq, pset.p)
						deltaB := statsDelta(db.Stats, before)

						db.Exec = engine.Options{RowAtATime: true}
						before = db.Stats
						rsR, errR := db.Execute(sq, pset.p)
						deltaR := statsDelta(db.Stats, before)

						label := qn + "/" + pset.name
						if (errB != nil) != (errR != nil) ||
							(errB != nil && errB.Error() != errR.Error()) {
							t.Fatalf("%s: error mismatch: batch=%v rows=%v", label, errB, errR)
						}
						if errB != nil {
							continue
						}
						if deltaB != deltaR {
							t.Errorf("%s: counters diverge:\n batch=%+v\n rows =%+v", label, deltaB, deltaR)
						}
						if strings.Join(rsB.Columns, ",") != strings.Join(rsR.Columns, ",") {
							t.Fatalf("%s: columns diverge: %v vs %v", label, rsB.Columns, rsR.Columns)
						}
						kb, kr := rowMultiset(rsB), rowMultiset(rsR)
						if len(kb) != len(kr) {
							t.Fatalf("%s: row counts diverge: batch=%d rows=%d", label, len(kb), len(kr))
						}
						for i := range kb {
							if kb[i] != kr[i] {
								t.Fatalf("%s: row multiset diverges at %d:\n batch %q\n rows  %q", label, i, kb[i], kr[i])
							}
						}
					}
				}
				if translated < 10 {
					t.Fatalf("only %d queries translated — corpus too thin to be meaningful", translated)
				}
			}

			t.Run("live", checkQueries)

			// Tombstone a spread of rows in every table and re-run: the
			// executors must also agree on dead-row skipping in scans,
			// index probes and hash builds.
			for _, name := range cat.Order {
				tb := db.Table(name)
				for pos := 0; pos < tb.NumRows(); pos += 3 {
					tb.MarkDeleted(pos)
				}
			}
			t.Run("tombstoned", checkQueries)
		})
	}
}

// BenchmarkExecuteIMDBJoin runs each block of the value joins Q12 and
// Q13 on both storage extremes under both executors: the shapes whose
// name and title equalities the planner fuses into hash keys.
func BenchmarkExecuteIMDBJoin(b *testing.B) {
	for _, cfg := range diffConfigs()[:2] {
		db, ps, cat, _, _ := buildDiffDB(b, cfg, 7)
		for _, qn := range []string{"Q12", "Q13"} {
			sq, err := xquery.Translate(imdb.Query(qn), ps, cat)
			if err != nil {
				b.Fatal(err)
			}
			for i, block := range sq.Blocks {
				for _, mode := range []struct {
					name string
					opts engine.Options
				}{{"batch", engine.Options{}}, {"rows", engine.Options{RowAtATime: true}}} {
					b.Run(fmt.Sprintf("%s/%s/block%d/%s", cfg.name, qn, i+1, mode.name), func(b *testing.B) {
						db.Exec = mode.opts
						rows := 0
						for n := 0; n < b.N; n++ {
							rs, err := db.ExecuteBlock(block, nil)
							if err != nil {
								b.Fatal(err)
							}
							rows = len(rs.Rows)
						}
						b.ReportMetric(float64(rows), "rows/op")
					})
				}
			}
		}
	}
}
