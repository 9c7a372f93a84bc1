package engine_test

import (
	"fmt"
	"slices"
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

// The IMDB corpora the engine's differential tests share: every storage
// configuration below, shredded from a generated document, with two
// parameter binding sets for the workload queries imdb.QueryNames()
// (Q1..Q20 and F1..F4). Deletes go through the shredder's cascade
// (cascadeDelete), never a bare tombstone, so every corpus keeps tree
// integrity (invariant 26), which the plan rule that drops implied
// ancestor joins relies on.

// diffConfig names a storage configuration of the annotated schema.
type diffConfig struct {
	name string
	// shows sizes the generated document: the fully outlined
	// configuration multiplies intermediate results on the deep-join
	// queries (every element is its own relation), so it runs on a
	// smaller document to keep the nested loops of refRun quick.
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
	// names), one binding everything to the year digits — which convert
	// to an integer against the INT year and compare verbatim against
	// the string-valued columns.
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

// rowKeys renders rows as kind-tagged keys, in their order.
func rowKeys(rows []engine.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
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
	return keys
}

// rowMultiset canonicalizes a result set's rows as a sorted multiset.
func rowMultiset(rs *engine.ResultSet) []string {
	keys := rowKeys(rs.Rows)
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

// cascadeDelete deletes, through the shredder's cascade, the row at every
// step-th position from first on of every table below the document
// root, with its subtree; rows a cascade already took are skipped. It
// returns the number of rows deleted.
func cascadeDelete(t testing.TB, sh *shred.Shredder, first, step int) int {
	t.Helper()
	deleted := 0
	for _, name := range sh.Cat.Order {
		if name == sh.Cat.RootTable {
			continue
		}
		tb := sh.DB.Table(name)
		for pos := first; pos < tb.NumRows(); pos += step {
			n, err := sh.DeleteInstance(tb.Def.TypeName, pos)
			if err != nil {
				t.Fatal(err)
			}
			deleted += n
		}
	}
	if deleted == 0 {
		t.Fatal("nothing was deleted")
	}
	return deleted
}

// TestBatchRowDifferentialIMDB holds the executor to refRun, the
// nested-loop definition of a query, on every workload query that
// translates, under both binding sets, on each IMDB configuration of
// diffConfigs: live, then after cascading deletes of every third row
// below the root (tombstoned), so the dead-row paths of scans, index
// probes and hash builds are covered too. Both error or neither does;
// the columns and the row multisets are equal. Each query runs twice on
// the executor, and the two runs must answer the same rows and accrue
// bit-identical counter deltas.
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
						label := qn + "/" + pset.name
						before := db.Measured()
						got, gotErr := db.Execute(sq, pset.p)
						delta := statsDelta(db.Measured(), before)
						before = db.Measured()
						again, againErr := db.Execute(sq, pset.p)
						deltaAgain := statsDelta(db.Measured(), before)
						want, wantErr := engine.RefRun(db, sq, pset.p)

						if (gotErr != nil) != (wantErr != nil) {
							t.Fatalf("%s: executor error %v, definition error %v", label, gotErr, wantErr)
						}
						if (gotErr != nil) != (againErr != nil) ||
							(gotErr != nil && gotErr.Error() != againErr.Error()) {
							t.Fatalf("%s: error differs between runs: %v, then %v", label, gotErr, againErr)
						}
						if delta != deltaAgain {
							t.Errorf("%s: counters differ between runs:\n first=%+v\n again=%+v", label, delta, deltaAgain)
						}
						if gotErr != nil {
							continue
						}
						if !slices.Equal(got.Columns, want.Columns) {
							t.Fatalf("%s: columns %v, definition's %v", label, got.Columns, want.Columns)
						}
						g, w := rowMultiset(got), rowMultiset(want)
						if !slices.Equal(g, w) {
							t.Fatalf("%s: %d rows, definition's %d", label, len(g), len(w))
						}
						if a := rowMultiset(again); !slices.Equal(g, a) {
							t.Fatalf("%s: %d rows, then %d on the same data", label, len(g), len(a))
						}
					}
				}
				if translated < 10 {
					t.Fatalf("only %d queries translated — corpus too thin to be meaningful", translated)
				}
			}

			t.Run("live", checkQueries)

			cascadeDelete(t, shred.New(ps, cat, db), 0, 3)
			t.Run("tombstoned", checkQueries)
		})
	}
}
