package engine_test

import (
	"strings"
	"testing"

	"legodb/internal/engine"
	"legodb/internal/imdb"
	"legodb/internal/optimizer"
	"legodb/internal/relational"
	"legodb/internal/shred"
	"legodb/internal/sqlast"
	"legodb/internal/xquery"
)

// TestElidedBlocksMatchFullJoins is the differential behind the plan
// rule that leaves out aliases implied by parent keys: every block of
// Q1–Q20 runs as planned, then again with each dropped alias's key
// projected — which pins the alias, so the plan joins it — and that
// column projected away. The row multisets must be equal, on three
// configurations under the key-only and the chosen index sets, loaded,
// after inserts and after cascading deletes.
func TestElidedBlocksMatchFullJoins(t *testing.T) {
	for _, cfg := range diffConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			db, ps, cat, matching, years := buildDiffDB(t, cfg, 26)
			var queries []*sqlast.Query
			var tw optimizer.TranslatedWorkload
			for _, qn := range imdb.QueryNames() {
				if !strings.HasPrefix(qn, "Q") {
					continue
				}
				if sq, err := xquery.Translate(imdb.Query(qn), ps, cat); err == nil {
					queries = append(queries, sq)
					tw.Queries = append(tw.Queries, optimizer.WeightedQuery{Query: sq, Weight: 1})
				}
			}
			chosen := optimizer.ChooseIndexes(cat, tw)
			if len(chosen) == 0 {
				t.Fatal("the chooser picked no index: the retuned set would be key-only")
			}
			check := func(t *testing.T) {
				elided, rows := 0, 0
				for _, set := range [][]relational.IndexRef{nil, chosen} {
					if err := db.SetIndexes(set); err != nil {
						t.Fatal(err)
					}
					for _, sq := range queries {
						for i, b := range sq.Blocks {
							implied := engine.ImpliedAliases(db, b)
							if len(implied) == 0 {
								continue
							}
							full := b.Clone()
							for _, x := range implied {
								full.Projects = append(full.Projects, sqlast.ColumnRef{Alias: x, Column: keyOf(t, cat, b, x)})
							}
							if again := engine.ImpliedAliases(db, full); len(again) > 0 {
								t.Fatalf("%s block %d: projecting %v still leaves %v out", sq.Name, i+1, implied, again)
							}
							for _, params := range []engine.Params{matching, years} {
								planned, err := db.ExecuteBlock(b, params)
								if err != nil {
									t.Fatalf("%s block %d: %v", sq.Name, i+1, err)
								}
								joined, err := db.ExecuteBlock(full, params)
								if err != nil {
									t.Fatalf("%s block %d, every join kept: %v", sq.Name, i+1, err)
								}
								w := len(planned.Columns)
								for r := range joined.Rows {
									joined.Rows[r] = joined.Rows[r][:w]
								}
								joined.Columns = joined.Columns[:w]
								got, want := rowMultiset(planned), rowMultiset(joined)
								if strings.Join(got, "\n") != strings.Join(want, "\n") {
									t.Fatalf("%s block %d (%v implied, indexes %v): %d rows planned, %d with every join\n%s",
										sq.Name, i+1, implied, set, len(got), len(want), b.SQL())
								}
								elided++
								rows += len(got)
							}
						}
					}
				}
				if elided < 20 || rows == 0 {
					t.Fatalf("only %d executions left an alias out, answering %d rows", elided, rows)
				}
			}
			t.Run("loaded", check)

			// Inserts: a second document's top-level elements become
			// children of the first document's root.
			sh := shred.New(ps, cat, db)
			extra := imdb.Generate(imdb.GenOptions{Shows: 3, Seed: 99})
			for _, c := range extra.Children {
				if _, err := sh.InsertChild(ps.Root, 1, c); err != nil {
					t.Fatalf("InsertChild <%s>: %v", c.Name, err)
				}
			}
			t.Run("inserted", check)

			// Cascading deletes: every fifth row of every table below the
			// root, with its subtree.
			cascadeDelete(t, sh, 1, 5)
			t.Run("deleted", check)
		})
	}
}

// keyOf returns the key column of alias x's table in block b.
func keyOf(t *testing.T, cat *relational.Catalog, b *sqlast.Block, x string) string {
	t.Helper()
	for _, tr := range b.Tables {
		if tr.Alias == x {
			return cat.Table(tr.Table).Key()
		}
	}
	t.Fatalf("alias %s is not in %s", x, b.SQL())
	return ""
}
