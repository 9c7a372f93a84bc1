package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"

	"legodb/internal/engine"
	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/shred"
	"legodb/internal/sqlast"
	"legodb/internal/xmltree"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
)

// retunedIndexes is the index set the serve-analytic tenant retunes to.
// A configuration takes the part of it whose columns it has.
var retunedIndexes = []relational.IndexRef{
	{Table: "Show", Column: "title"},
	{Table: "Aka", Column: "parent_Show"},
	{Table: "Played", Column: "parent_Actor"},
}

// defRun is one execution of the definition corpus.
type defRun struct {
	label  string
	db     *engine.Database
	query  *sqlast.Query
	params engine.Params
}

// definitionCorpus calls visit, in a fixed order, on every execution of
// the corpus TestExecutorMatchesDefinition and TestCountersPinned share:
// the workload queries Q1–Q20 and F1–F4 and the locate blocks of an
// InsertChild and a DeleteWhere, under two binding sets, on each IMDB
// configuration of diffConfigs × the key-only and the retuned index sets
// × the heap image and its colfile-frozen twin, loaded, after
// InsertChild (a heap tail over the frozen base) and after cascading
// deletes; then path queries over a schema whose root type recurs as a
// child.
func definitionCorpus(t *testing.T, visit func(t *testing.T, r defRun)) {
	for _, cfg := range diffConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			heap, ps, cat, matching, years := buildDiffDB(t, cfg, 7)
			queries := definitionQueries(t, ps, cat)
			fcat := cat.Clone()
			frozen := freezeDatabase(t, heap, fcat)
			var retuned []relational.IndexRef
			for _, r := range retunedIndexes {
				if tb := cat.Table(r.Table); tb != nil && tb.Column(r.Column) != nil {
					retuned = append(retuned, r)
				}
			}
			if len(retuned) == 0 {
				t.Fatalf("no column of %v in %s", retunedIndexes, cfg.name)
			}
			storages := []struct {
				name string
				db   *engine.Database
				sh   *shred.Shredder
			}{
				{"heap", heap, shred.New(ps, cat, heap)},
				{"colfile", frozen, shred.New(ps, fcat, frozen)},
			}
			check := func(state string) func(t *testing.T) {
				return func(t *testing.T) {
					for _, st := range storages {
						for _, set := range [][]relational.IndexRef{nil, retuned} {
							if err := st.db.SetIndexes(set); err != nil {
								t.Fatal(err)
							}
							for _, q := range queries {
								for i, p := range []engine.Params{matching, years} {
									label := fmt.Sprintf("%s/%s/%s/%v/%s/params%d", cfg.name, state, st.name, set, q.Name, i)
									visit(t, defRun{label, st.db, q, p})
								}
							}
						}
					}
				}
			}
			t.Run("loaded", check("loaded"))

			// A second document's top-level elements become children of
			// the first document's root, in both images alike.
			extra := imdb.Generate(imdb.GenOptions{Shows: 3, Seed: 99})
			for _, st := range storages {
				for _, c := range extra.Children {
					if _, err := st.sh.InsertChild(ps.Root, 1, c); err != nil {
						t.Fatalf("%s: InsertChild <%s>: %v", st.name, c.Name, err)
					}
				}
			}
			t.Run("inserted", check("inserted"))

			for _, st := range storages {
				cascadeDelete(t, st.sh, 1, 5)
			}
			t.Run("deleted", check("deleted"))
		})
	}

	t.Run("root-recurring", func(t *testing.T) {
		ps, err := pschema.InitialOutlined(xschema.MustParseSchema(`
type Part = part[ name[String], Sub{0,*} ]
type Sub = sub[ Part ]`))
		if err != nil {
			t.Fatal(err)
		}
		cat, err := relational.Map(ps)
		if err != nil {
			t.Fatal(err)
		}
		db := engine.NewDatabase(cat)
		doc, err := xmltree.ParseString(`<part><name>root</name><sub><part><name>child</name>` +
			`<sub><part><name>grandchild</name></part></sub></part></sub><sub><part><name>second</name></part></sub></part>`)
		if err != nil {
			t.Fatal(err)
		}
		if err := shred.New(ps, cat, db).Shred(doc); err != nil {
			t.Fatal(err)
		}
		for _, src := range []string{
			`FOR $p IN part/sub/part RETURN $p/name`,
			`FOR $p IN part/sub/part/sub/part RETURN $p/name`,
			`FOR $p IN part RETURN $p`,
		} {
			sq, err := xquery.Translate(xquery.MustParse(src), ps, cat)
			if err != nil {
				t.Fatal(err)
			}
			visit(t, defRun{"root-recurring/" + src, db, sq, nil})
		}
	})
}

// definitionQueries translates the workload queries the configuration
// exposes, and the locate blocks of an InsertChild under a show found by
// title (c2) and of a DeleteWhere of an actor found by name (c1).
func definitionQueries(t *testing.T, ps *xschema.Schema, cat *relational.Catalog) []*sqlast.Query {
	t.Helper()
	var queries []*sqlast.Query
	for _, qn := range imdb.QueryNames() {
		// Not every query targets paths every configuration exposes; the
		// ones that translate are the corpus.
		if sq, err := xquery.Translate(imdb.Query(qn), ps, cat); err == nil {
			queries = append(queries, sq)
		}
	}
	if len(queries) < 10 {
		t.Fatalf("only %d queries translated — corpus too thin to be meaningful", len(queries))
	}
	for _, loc := range []struct{ name, src string }{
		{"insert-locate", `FOR $s IN imdb/show WHERE $s/title = c2 RETURN $s`},
		{"delete-locate", `FOR $a IN imdb/actor WHERE $a/name = c1 RETURN $a`},
	} {
		q := xquery.MustParse(loc.src)
		q.Name = loc.name
		targets, err := xquery.TranslateTargets(q, ps, cat)
		if err != nil {
			t.Fatal(err)
		}
		sq := &sqlast.Query{Name: loc.name}
		for _, tb := range targets {
			sq.Blocks = append(sq.Blocks, tb.Block)
		}
		queries = append(queries, sq)
	}
	return queries
}

// TestExecutorMatchesDefinition holds the executor to refRun, the
// nested-loop definition of a block, over the definition corpus: both
// error or neither does, and they answer the same columns and the same
// row multiset. Block by block, where the plan leaves no alias out, the
// rows also leave in refRun's order, lexicographic in their FROM-order
// positions (invariant 18); a block that leaves aliases out answers in
// the order of its remaining ones.
func TestExecutorMatchesDefinition(t *testing.T) {
	ordered, elided := 0, 0
	definitionCorpus(t, func(t *testing.T, r defRun) {
		got, gotErr := r.db.Execute(r.query, r.params)
		want, wantErr := engine.RefRun(r.db, r.query, r.params)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: executor error %v, definition error %v", r.label, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !slices.Equal(got.Columns, want.Columns) {
			t.Fatalf("%s: columns %v, definition's %v", r.label, got.Columns, want.Columns)
		}
		if g, w := rowMultiset(got), rowMultiset(want); !slices.Equal(g, w) {
			t.Fatalf("%s: %d rows, definition's %d\n%s", r.label, len(g), len(w), r.query.Blocks[0].SQL())
		}
		at := 0
		for i, b := range r.query.Blocks {
			n := len(want.Rows)
			if len(r.query.Blocks) > 1 {
				rs, err := engine.RefRun(r.db, &sqlast.Query{Blocks: []*sqlast.Block{b}}, r.params)
				if err != nil {
					t.Fatal(err)
				}
				n = len(rs.Rows)
			}
			if len(engine.ImpliedAliases(r.db, b)) > 0 {
				elided++
			} else {
				g, w := rowKeys(got.Rows[at:at+n]), rowKeys(want.Rows[at:at+n])
				if !slices.Equal(g, w) {
					t.Fatalf("%s block %d: rows leave out of FROM order\n%s\n got %s\nwant %s",
						r.label, i+1, b.SQL(), strings.Join(g, " "), strings.Join(w, " "))
				}
				ordered++
			}
			at += n
		}
	})
	if ordered < 100 || elided < 100 {
		t.Fatalf("order checked on %d blocks, multisets alone on %d: corpus too thin", ordered, elided)
	}
	t.Logf("%d block executions checked in order, %d that leave aliases out as multisets", ordered, elided)
}

// countersPin is the SHA-256 of every counter delta the executor accrues
// over the definition corpus, as TestCountersPinned formats them.
// Re-pin it only with the reason written here.
//
// Pinned when the row-at-a-time executor was deleted: these are the
// deltas that executor accrued bit for bit on the same plans.
const countersPin = "428ad433f79d9dd38521d3ce5742172e48297c64aa1c7a189eff95998005c4ac"

// TestCountersPinned pins the executor's Counters, which the est/meas
// validation of the cost model reads, the way TestCostsPinned pins the
// model's estimates: one hash over the exact counter deltas of every
// execution of the definition corpus. It covers the whole corpus, so it
// holds only when run whole.
func TestCountersPinned(t *testing.T) {
	h := sha256.New()
	runs := 0
	definitionCorpus(t, func(t *testing.T, r defRun) {
		before := r.db.Measured()
		_, err := r.db.Execute(r.query, r.params)
		d := statsDelta(r.db.Measured(), before)
		fmt.Fprintf(h, "%s err=%t bytes=%v tuples=%d probes=%d scans=%d out=%d\n",
			r.label, err != nil, d.BytesRead, d.TuplesRead, d.Probes, d.Scans, d.TuplesOut)
		runs++
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != countersPin {
		t.Errorf("the counter deltas of %d executions hash to %s, pinned %s", runs, got, countersPin)
	}
}
