package transform_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"legodb/internal/core"
	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/transform"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

// nytLabels are the wildcard labels cmd/legodb offers the search.
var nytLabels = map[string]float64{"nyt": 0.25}

// searchPaths returns the p-schema sequences the sharing differentials
// range over: for each Figure 10 workload and each of greedy-so and
// greedy-si, the initial schema followed by every winner on the
// search's path; then the all-outlined and all-inlined forms of 50
// random schemas, one per sequence. Later schemas on a path are
// derived from earlier ones by Apply, so they share definitions.
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
			for _, it := range res.Trace {
				ps = applyNamed(t, ps, it.Applied)
				path = append(path, ps)
			}
			if ps.NamedDigest() != res.Best.Schema.NamedDigest() {
				t.Fatalf("%v: replayed path ends at\n%s\nwant\n%s", strategy, ps, res.Best.Schema)
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

// applyNamed applies the candidate of s that renders as name.
func applyNamed(t *testing.T, s *xschema.Schema, name string) *xschema.Schema {
	t.Helper()
	for _, tr := range transform.Candidates(s, transform.Options{WildcardLabels: nytLabels}) {
		if tr.String() == name {
			out, err := transform.Apply(s, tr)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return out
		}
	}
	t.Fatalf("no candidate %s in\n%s", name, s)
	return nil
}

// TestApplyMatchesDeepCopy pins the sharing contract of Apply: for
// every candidate of every kind on every schema of searchPaths, the
// result is the one a rewrite of a private deep copy produces, and the
// base — whose definitions the result may share — is left as it was,
// even after the result is annotated in place.
func TestApplyMatchesDeepCopy(t *testing.T) {
	stats := imdb.Stats()
	applied := 0
	for _, path := range searchPaths(t) {
		for _, base := range path {
			before := base.String()
			digests := base.TypeDigests()
			for _, tr := range transform.Candidates(base, transform.Options{WildcardLabels: nytLabels}) {
				got, gerr := transform.Apply(base, tr)
				want, werr := transform.RefApply(base, tr)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("%s: Apply error %v, reference error %v", tr, gerr, werr)
				}
				if gerr != nil {
					continue
				}
				applied++
				if got.String() != want.String() || got.Fingerprint() != want.Fingerprint() || got.NamedDigest() != want.NamedDigest() {
					t.Fatalf("%s on\n%s\nApply:\n%s\nreference:\n%s", tr, before, got, want)
				}
				if base.Root == "IMDB" {
					if err := xstats.Annotate(got, stats); err != nil {
						t.Fatal(err)
					}
				}
				if base.String() != before {
					t.Fatalf("%s (or annotating its result) rewrote the base:\n%s\nwas\n%s", tr, base, before)
				}
				for name, d := range base.TypeDigests() {
					if digests[name] != d {
						t.Fatalf("%s moved the base's digest of %s", tr, name)
					}
				}
			}
		}
	}
	t.Logf("%d candidates applied", applied)
	if applied < 1000 {
		t.Fatalf("only %d candidates applied; the corpus lost its coverage", applied)
	}
}
