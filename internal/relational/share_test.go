package relational_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"legodb/internal/core"
	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/transform"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

var nytLabels = map[string]float64{"nyt": 0.25}

// searchPaths returns, for each Figure 10 workload and each of
// greedy-so and greedy-si, the initial p-schema followed by every
// winner on the search's path, and the all-outlined and all-inlined
// forms of 50 random schemas, one per path.
func searchPaths(t *testing.T) [][]*xschema.Schema {
	t.Helper()
	annotated := imdb.Schema()
	if err := xstats.Annotate(annotated, imdb.Stats()); err != nil {
		t.Fatal(err)
	}
	var paths [][]*xschema.Schema
	for _, wl := range []*xquery.Workload{imdb.LookupWorkload(), imdb.PublishWorkload()} {
		for _, strategy := range []core.Strategy{core.GreedySO, core.GreedySI} {
			res, err := core.GreedySearch(context.Background(), imdb.Schema(), wl, imdb.Stats(), core.Options{Strategy: strategy})
			if err != nil {
				t.Fatal(err)
			}
			ps, err := core.InitialSchema(annotated, strategy)
			if err != nil {
				t.Fatal(err)
			}
			path := []*xschema.Schema{ps}
		step:
			for _, it := range res.Trace {
				for _, tr := range transform.Candidates(ps, transform.Options{}) {
					if tr.String() == it.Applied {
						if ps, err = transform.Apply(ps, tr); err != nil {
							t.Fatal(err)
						}
						path = append(path, ps)
						continue step
					}
				}
				t.Fatalf("no candidate %s", it.Applied)
			}
			paths = append(paths, path)
		}
	}
	for seed := int64(0); seed < 50; seed++ {
		s := xschema.RandomSchema(rand.New(rand.NewSource(seed)), 5)
		for _, mk := range []func(*xschema.Schema) (*xschema.Schema, error){pschema.InitialOutlined, pschema.AllInlined} {
			if ps, err := mk(s); err == nil {
				paths = append(paths, []*xschema.Schema{ps})
			}
		}
	}
	return paths
}

// sameCatalog fails unless got equals the one-shot mapping want in its
// DDL, table order and type-to-table map, and in every table's digests,
// cardinality, parent edges and column fields.
func sameCatalog(t *testing.T, label string, got, want *relational.Catalog) {
	t.Helper()
	if got.SQL() != want.SQL() || !reflect.DeepEqual(got.Order, want.Order) || !reflect.DeepEqual(got.TableOf, want.TableOf) {
		t.Fatalf("%s: catalog\n%s\none-shot\n%s", label, got.SQL(), want.SQL())
	}
	for name, w := range want.Tables {
		g := got.Tables[name]
		if g.Digest != w.Digest || g.TypeDigest != w.TypeDigest ||
			math.Float64bits(g.Rows) != math.Float64bits(w.Rows) || !reflect.DeepEqual(g.Parents, w.Parents) {
			t.Fatalf("%s: table %s differs from the one-shot mapping", label, name)
		}
		if len(g.Columns) != len(w.Columns) {
			t.Fatalf("%s: table %s has %d columns, one-shot %d", label, name, len(g.Columns), len(w.Columns))
		}
		for i := range w.Columns {
			if !reflect.DeepEqual(*g.Columns[i], *w.Columns[i]) {
				t.Fatalf("%s: %s column %d = %+v, one-shot %+v", label, name, i, *g.Columns[i], *w.Columns[i])
			}
		}
	}
}

// sameInputs reports whether two tables were built from the same
// mapping inputs: definition, name, cardinality, and incoming edges
// with their fan-outs and parent cardinalities.
func sameInputs(a, b *relational.Table) bool {
	if a.TypeName != b.TypeName || a.TypeDigest != b.TypeDigest ||
		math.Float64bits(a.Rows) != math.Float64bits(b.Rows) || len(a.Parents) != len(b.Parents) {
		return false
	}
	for i, e := range a.Parents {
		f := b.Parents[i]
		if e.Parent != f.Parent || math.Float64bits(e.AvgPerParent) != math.Float64bits(f.AvgPerParent) ||
			math.Float64bits(a.Column(e.FKColumn).Distinct) != math.Float64bits(b.Column(f.FKColumn).Distinct) {
			return false
		}
	}
	return true
}

// TestMapperMatchesOneShot drives one Mapper along each search path,
// mapping every schema on it and every candidate of every kind derived
// from each: every catalog must equal a one-shot Map of the same
// schema, and a candidate table whose inputs match its base's table
// must be that very table.
func TestMapperMatchesOneShot(t *testing.T) {
	mapped, reused := 0, 0
	for _, path := range searchPaths(t) {
		mp := relational.NewMapper(relational.Options{})
		for _, base := range path {
			baseCat, err := mp.Map(base, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := relational.Map(base)
			if err != nil {
				t.Fatal(err)
			}
			sameCatalog(t, "base", baseCat, want)
			for _, tr := range transform.Candidates(base, transform.Options{WildcardLabels: nytLabels}) {
				next, err := transform.Apply(base, tr)
				if err != nil {
					continue
				}
				got, err := mp.Map(next, nil)
				if err != nil {
					t.Fatalf("%s: %v", tr, err)
				}
				want, err := relational.Map(next)
				if err != nil {
					t.Fatalf("%s: one-shot: %v", tr, err)
				}
				sameCatalog(t, tr.String(), got, want)
				mapped++
				for name, tbl := range got.Tables {
					prev := baseCat.Tables[name]
					if prev == nil || !sameInputs(prev, tbl) {
						continue
					}
					if prev != tbl {
						t.Fatalf("%s: table %s has its base's inputs but was rebuilt", tr, name)
					}
					reused++
				}
			}
		}
	}
	t.Logf("%d candidates mapped, %d tables reused", mapped, reused)
	if mapped < 1000 || reused < mapped {
		t.Fatalf("%d candidates mapped, %d tables reused: the corpus lost its coverage", mapped, reused)
	}
}
