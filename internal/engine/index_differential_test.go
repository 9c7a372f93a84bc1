package engine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"legodb/internal/engine"
	"legodb/internal/imdb"
	"legodb/internal/relational"
	"legodb/internal/sqlast"
	"legodb/internal/xquery"
)

// indexedCopy rebuilds db under a copy of its catalog that flags refs as
// secondary indexes. With built true the rows go in first and the indexes
// are built afterwards in one pass (Table.BuildIndex, the path a store's
// retune takes); otherwise the tables are created indexed and Insert
// maintains them (the path a load takes). Positions and tombstones are
// those of db.
func indexedCopy(t *testing.T, db *engine.Database, cat *relational.Catalog, refs []relational.IndexRef, built bool) (*engine.Database, *relational.Catalog) {
	t.Helper()
	icat := cat.Clone()
	if !built {
		icat.SetIndexes(refs)
	}
	idb := engine.NewDatabase(icat)
	for _, name := range cat.Order {
		src, dst := db.Table(name), idb.Table(name)
		for pos := 0; pos < src.NumRows(); pos++ {
			if err := dst.Insert(src.Row(pos)); err != nil {
				t.Fatal(err)
			}
			if !src.Alive(pos) {
				dst.MarkDeleted(pos)
			}
		}
		dst.SetNextID(src.PeekNextID())
	}
	if built {
		for _, r := range refs {
			if err := idb.Table(r.Table).BuildIndex(r.Column); err != nil {
				t.Fatal(err)
			}
		}
		icat.SetIndexes(refs)
	}
	return idb, icat
}

// randomIndexSet flags each non-key column with probability p.
func randomIndexSet(cat *relational.Catalog, rng *rand.Rand, p float64) []relational.IndexRef {
	var refs []relational.IndexRef
	for _, name := range cat.Order {
		for _, c := range cat.Tables[name].Columns {
			if !c.Key && rng.Float64() < p {
				refs = append(refs, relational.IndexRef{Table: name, Column: c.Name})
			}
		}
	}
	return refs
}

type execOutcome struct {
	err  string
	cols string
	rows []engine.Row
	used engine.Counters
}

func execute(db *engine.Database, q *sqlast.Query, p engine.Params, opts engine.Options) execOutcome {
	db.Exec = opts
	before := db.Stats
	rs, err := db.Execute(q, p)
	out := execOutcome{used: statsDelta(db.Stats, before)}
	if err != nil {
		out.err = err.Error()
		return out
	}
	out.cols, out.rows = strings.Join(rs.Columns, ","), rs.Rows
	return out
}

func sameAnswer(a, b execOutcome) error {
	if a.err != b.err {
		return fmt.Errorf("errors differ: %q vs %q", a.err, b.err)
	}
	if a.cols != b.cols {
		return fmt.Errorf("columns differ: %s vs %s", a.cols, b.cols)
	}
	if len(a.rows) != len(b.rows) {
		return fmt.Errorf("%d rows vs %d", len(a.rows), len(b.rows))
	}
	for i := range a.rows {
		for j := range a.rows[i] {
			if a.rows[i][j] != b.rows[i][j] {
				return fmt.Errorf("row %d differs: %v vs %v", i, a.rows[i], b.rows[i])
			}
		}
	}
	return nil
}

// TestIndexSetInvisibleDifferentialIMDB is invariant 17: the index set is
// invisible except for cost and Counters. Every IMDB workload query runs
// on each storage configuration against the key-only design and against
// random sets of flagged columns — maintained by Insert or built
// afterwards, on heap rows or on a frozen columnar base, live and
// tombstoned — and must return the same error, the same columns and the
// same rows in the same order from both executors; within an indexed
// database the two executors must also accrue identical Counters.
func TestIndexSetInvisibleDifferentialIMDB(t *testing.T) {
	for _, cfg := range diffConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			plain, ps, cat, matching, years := buildDiffDB(t, cfg, 21)
			rng := rand.New(rand.NewSource(16))
			type variant struct {
				name string
				db   *engine.Database
			}
			var variants []variant
			for i, p := range []float64{0.3, 0.7, 1} {
				refs := randomIndexSet(cat, rng, p)
				idb, icat := indexedCopy(t, plain, cat, refs, i%2 == 1)
				variants = append(variants,
					variant{fmt.Sprintf("heap/%d flagged", len(refs)), idb},
					variant{fmt.Sprintf("frozen/%d flagged", len(refs)), freezeDatabase(t, idb, icat)})
			}
			check := func(t *testing.T) {
				lookups, probes := 0, 0
				for _, qn := range imdb.QueryNames() {
					sq, err := xquery.Translate(imdb.Query(qn), ps, cat)
					if err != nil {
						continue
					}
					for pname, params := range map[string]engine.Params{"matching": matching, "years": years} {
						want := execute(plain, sq, params, engine.Options{})
						for _, v := range variants {
							label := qn + "/" + pname + "/" + v.name
							batch := execute(v.db, sq, params, engine.Options{})
							rows := execute(v.db, sq, params, engine.Options{RowAtATime: true})
							if err := sameAnswer(want, batch); err != nil {
								t.Fatalf("%s: batch executor vs key-only design: %v", label, err)
							}
							if err := sameAnswer(want, rows); err != nil {
								t.Fatalf("%s: row executor vs key-only design: %v", label, err)
							}
							if batch.used != rows.used {
								t.Errorf("%s: executor counters diverge:\n batch=%+v\n rows =%+v", label, batch.used, rows.used)
							}
							if batch.used.Scans < want.used.Scans {
								lookups++
							}
							if batch.used.Probes > want.used.Probes {
								probes++
							}
						}
					}
				}
				if lookups == 0 || probes == 0 {
					t.Fatalf("index access paths never ran (%d executions scanned less, %d probed more)", lookups, probes)
				}
			}
			t.Run("live", check)

			// The same positions die everywhere (the frozen twins were
			// frozen live, so positions agree), and one more variant builds
			// its indexes over tables that already hold tombstones.
			dbs := []*engine.Database{plain}
			for _, v := range variants {
				dbs = append(dbs, v.db)
			}
			for _, db := range dbs {
				for _, name := range cat.Order {
					tb := db.Table(name)
					for pos := 0; pos < tb.NumRows(); pos += 3 {
						tb.MarkDeleted(pos)
					}
				}
			}
			late, _ := indexedCopy(t, plain, cat, randomIndexSet(cat, rng, 0.5), true)
			variants = append(variants, variant{"heap/built over tombstones", late})
			t.Run("tombstoned", check)
		})
	}
}
