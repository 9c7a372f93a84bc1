package legodb

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
	"legodb/internal/transform"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

// TestLogicalPhysicalIndependence verifies the paper's second design
// principle end to end: the answers of a workload are invariant under
// the storage configuration. The same document set is shredded into
// every configuration the transformations can produce, each query runs
// on each configuration, and the result multisets must coincide.
func TestLogicalPhysicalIndependence(t *testing.T) {
	base := imdb.Schema()
	if err := xstats.Annotate(base, imdb.Stats()); err != nil {
		t.Fatal(err)
	}

	configs := map[string]*xschema.Schema{}
	if ps, err := pschema.AllInlined(base); err == nil {
		configs["all-inlined"] = ps
	} else {
		t.Fatal(err)
	}
	if ps, err := pschema.InitialOutlined(base); err == nil {
		configs["all-outlined"] = ps
	} else {
		t.Fatal(err)
	}
	if ps, err := pschema.InitialInlined(base, pschema.InlineOptions{}); err == nil {
		configs["inlined-with-unions"] = ps
		if cands := transform.Candidates(ps, transform.Options{
			Kinds: []transform.Kind{transform.KindUnionDistribute},
		}); len(cands) > 0 {
			dist, err := transform.Apply(ps, cands[0])
			if err != nil {
				t.Fatal(err)
			}
			configs["union-distributed"] = dist
		}
	} else {
		t.Fatal(err)
	}
	if cands := transform.Candidates(configs["all-inlined"], transform.Options{
		Kinds:          []transform.Kind{transform.KindWildcardMaterialize},
		WildcardLabels: map[string]float64{"nyt": 0.25},
	}); len(cands) > 0 {
		wild, err := transform.Apply(configs["all-inlined"], cands[0])
		if err != nil {
			t.Fatal(err)
		}
		configs["wildcard-materialized"] = wild
	}

	doc := imdb.Generate(imdb.GenOptions{Shows: 80, Seed: 33, ReviewsPerShow: 1.5})
	title := doc.Path("show", "title")[0].Text
	year := doc.Path("show", "year")[1].Text
	queries := []struct {
		name   string
		src    string
		params engine.Params
	}{
		{"by-year", `FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title, $v/year`,
			engine.Params{"c1": engine.StrVal(year)}},
		{"by-title-desc", `FOR $v IN imdb/show WHERE $v/title = c2 RETURN $v/description`,
			engine.Params{"c2": engine.StrVal(title)}},
		{"nyt-reviews", `FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title, $v/reviews/nyt`,
			engine.Params{"c1": engine.StrVal(year)}},
		{"episodes", `FOR $v IN imdb/show
			RETURN <r> $v/title FOR $e IN $v/episodes RETURN $e/name, $e/guest_director </r>`, nil},
		{"actor-director", `FOR $i IN imdb, $a IN $i/actor, $d IN $i/director
			WHERE $a/name = $d/name RETURN $a/name`, nil},
	}

	answers := map[string]map[string][]string{}
	names := make([]string, 0, len(configs))
	for name := range configs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ps := configs[name]
		// The year parameter must compare as the column's type; convert
		// where the schema typed year as Integer.
		cat, err := relational.Map(ps)
		if err != nil {
			t.Fatalf("%s: Map: %v", name, err)
		}
		db := engine.NewDatabase(cat)
		if err := shred.New(ps, cat, db).Shred(doc); err != nil {
			t.Fatalf("%s: Shred: %v", name, err)
		}
		answers[name] = map[string][]string{}
		for _, q := range queries {
			parsed := xquery.MustParse(q.src)
			parsed.Name = q.name
			sq, err := xquery.Translate(parsed, ps, cat)
			if err != nil {
				t.Fatalf("%s/%s: Translate: %v", name, q.name, err)
			}
			rs, err := db.Execute(sq, q.params)
			if err != nil {
				t.Fatalf("%s/%s: Execute: %v", name, q.name, err)
			}
			answers[name][q.name] = canonicalRows(rs)
		}
	}
	reference := names[0]
	for _, name := range names[1:] {
		for _, q := range queries {
			got := answers[name][q.name]
			want := answers[reference][q.name]
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("query %s differs between %s (%d rows) and %s (%d rows)\nfirst rows: %.200v vs %.200v",
					q.name, reference, len(want), name, len(got), first(want), first(got))
			}
		}
	}
}

// canonicalRows renders a result set as a sorted multiset of cell
// multisets, so block order and column order do not matter.
func canonicalRows(rs *engine.ResultSet) []string {
	rows := make([]string, 0, len(rs.Rows))
	for _, r := range rs.Rows {
		cells := make([]string, 0, len(r))
		for _, v := range r {
			if v.IsNull() {
				continue // absent optional fields are not part of the answer
			}
			cells = append(cells, v.String())
		}
		sort.Strings(cells)
		rows = append(rows, strings.Join(cells, "|"))
	}
	sort.Strings(rows)
	return rows
}

func first(rows []string) string {
	if len(rows) == 0 {
		return "<empty>"
	}
	return fmt.Sprintf("%q", rows[0])
}
