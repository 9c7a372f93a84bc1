package optimizer

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

// imdbEnv maps the annotated IMDB schema under one fixed configuration.
func imdbEnv(t *testing.T, build func(*xschema.Schema) (*xschema.Schema, error)) *env {
	t.Helper()
	s := imdb.Schema()
	if err := xstats.Annotate(s, imdb.Stats()); err != nil {
		t.Fatal(err)
	}
	ps, err := build(s)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := relational.MapWith(ps, relational.Options{RootCount: 16})
	if err != nil {
		t.Fatal(err)
	}
	return &env{schema: ps, cat: cat, opt: New(cat)}
}

// costChecksum hashes, bit for bit, every table digest of the catalog and
// the estimated cost of every IMDB workload query and of three updates.
func costChecksum(t *testing.T, e *env) uint64 {
	t.Helper()
	h := fnv.New64a()
	for _, name := range e.cat.Order {
		fmt.Fprintf(h, "%s %x;", name, e.cat.Tables[name].Digest)
	}
	for _, qn := range imdb.QueryNames() {
		sq, err := xquery.Translate(imdb.Query(qn), e.schema, e.cat)
		if err != nil {
			continue
		}
		est, err := e.opt.QueryCost(sq)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %x %x;", qn, math.Float64bits(est.Cost), math.Float64bits(est.Rows))
	}
	for _, text := range []string{"INSERT imdb/show/aka", "DELETE imdb/show", "MODIFY imdb/show/title"} {
		u := xquery.MustParseUpdate(text)
		targets, err := xquery.ResolveUpdate(u, e.schema, e.cat)
		if err != nil {
			t.Fatal(err)
		}
		c, err := e.opt.UpdateCost(u, targets)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %x;", text, math.Float64bits(c))
	}
	return h.Sum64()
}

// TestKeyOnlyDesignCostsAsBeforeIndexes pins the paper's model: with no
// column flagged, digests and costs are bit-identical to what they were
// before index access paths existed (the constants were computed by this
// same function at that commit), so searches, figures and goldens cannot
// have moved. A flag moves the digest of its table and of no other.
func TestKeyOnlyDesignCostsAsBeforeIndexes(t *testing.T) {
	for _, cfg := range []struct {
		name  string
		build func(*xschema.Schema) (*xschema.Schema, error)
		want  uint64
	}{
		{"all-inlined", pschema.AllInlined, 0xd0d71a283ad71822},
		{"all-outlined", pschema.InitialOutlined, 0x7bfdb5e5b04efd1c},
	} {
		e := imdbEnv(t, cfg.build)
		if got := costChecksum(t, e); got != cfg.want {
			t.Errorf("%s: key-only checksum %#x, want %#x", cfg.name, got, cfg.want)
		}
		// Flag the first data column of the catalog, on a clone.
		var ref relational.IndexRef
		for _, name := range e.cat.Order {
			for _, c := range e.cat.Tables[name].Columns {
				if ref.Table == "" && !c.Maintained() {
					ref = relational.IndexRef{Table: name, Column: c.Name}
				}
			}
		}
		flagged := e.cat.Clone()
		flagged.SetIndexes([]relational.IndexRef{ref})
		for _, name := range e.cat.Order {
			moved := flagged.Tables[name].Digest != e.cat.Tables[name].Digest
			if moved != (name == ref.Table) {
				t.Errorf("%s: digest of %s moved=%v after flagging %s", cfg.name, name, moved, ref)
			}
		}
		if len(e.cat.Indexes()) != 0 {
			t.Errorf("%s: flagging a clone flagged the original", cfg.name)
		}
		flagged.SetIndexes(nil)
		if flagged.Tables[ref.Table].Digest != e.cat.Tables[ref.Table].Digest {
			t.Errorf("%s: clearing the flag did not restore the digest", cfg.name)
		}
	}
}

// translated binds named IMDB queries (weight 1 each unless given) and
// updates to the environment's catalog.
func (e *env) translated(t *testing.T, queries map[string]float64, updates map[string]float64) TranslatedWorkload {
	t.Helper()
	var tw TranslatedWorkload
	for _, qn := range imdb.QueryNames() {
		w, ok := queries[qn]
		if !ok {
			continue
		}
		sq, err := xquery.Translate(imdb.Query(qn), e.schema, e.cat)
		if err != nil {
			t.Fatal(err)
		}
		tw.Queries = append(tw.Queries, WeightedQuery{Query: sq, Weight: w})
	}
	for _, text := range []string{"INSERT imdb/show", "INSERT imdb/show/aka", "DELETE imdb/actor"} {
		w, ok := updates[text]
		if !ok {
			continue
		}
		u := xquery.MustParseUpdate(text)
		targets, err := xquery.ResolveUpdate(u, e.schema, e.cat)
		if err != nil {
			t.Fatal(err)
		}
		tw.Updates = append(tw.Updates, WeightedUpdate{Update: u, Targets: targets, Weight: w})
	}
	return tw
}

func names(refs []relational.IndexRef) string {
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = r.String()
	}
	return strings.Join(out, " ")
}

func TestChooseIndexesFollowsTheWorkload(t *testing.T) {
	e := imdbEnv(t, pschema.AllInlined)
	// Q3 filters Show by year, Q19 by title, Q8 Actor by name.
	reads := map[string]float64{"Q3": 6, "Q19": 2, "Q8": 1}

	// Read-only: every equality-filtered column pays for itself.
	chosen := ChooseIndexes(e.cat, e.translated(t, reads, nil))
	for _, want := range []string{"Show.title", "Show.year", "Actor.name"} {
		if !strings.Contains(" "+names(chosen)+" ", " "+want+" ") {
			t.Errorf("read-only workload: %s not chosen (chose %s)", want, names(chosen))
		}
	}
	// The result is in catalog order, the input catalog is untouched, and
	// flags it already carries do not steer the choice.
	if got := e.cat.Indexes(); len(got) != 0 {
		t.Fatalf("ChooseIndexes flagged its input: %v", got)
	}
	seeded := e.cat.Clone()
	seeded.SetIndexes([]relational.IndexRef{{Table: "Director", Column: "name"}})
	if again := ChooseIndexes(seeded, e.translated(t, reads, nil)); !reflect.DeepEqual(again, chosen) {
		t.Errorf("choice depends on the flags of the input: %s vs %s", names(again), names(chosen))
	}
	sorted := e.cat.Clone()
	sorted.SetIndexes(chosen)
	if !reflect.DeepEqual(sorted.Indexes(), chosen) {
		t.Errorf("result not in catalog order: %s", names(chosen))
	}

	// Nothing the workload does not ask for is chosen.
	if only := ChooseIndexes(e.cat, e.translated(t, map[string]float64{"Q3": 1}, nil)); names(only) != "Show.year" {
		t.Errorf("year lookups alone chose %q, want Show.year", names(only))
	}

	// Insert-heavy: once Show rows are written far more often than they
	// are looked up, the table loses its indexes; Actor, which nobody
	// writes, keeps its own.
	heavy := ChooseIndexes(e.cat, e.translated(t, reads, map[string]float64{"INSERT imdb/show": 1e7}))
	for _, r := range heavy {
		if r.Table == "Show" {
			t.Errorf("insert-heavy Show kept index %s (chose %s)", r, names(heavy))
		}
	}
	if !strings.Contains(names(heavy), "Actor.name") {
		t.Errorf("writes to Show cost Actor its index (chose %s)", names(heavy))
	}
}

// TestIndexAccessPathsArePriced checks the two new paths against the
// scans they replace, and that the plan names them.
func TestIndexAccessPathsArePriced(t *testing.T) {
	e := imdbEnv(t, pschema.AllInlined)
	sq, err := xquery.Translate(imdb.Query("Q19"), e.schema, e.cat)
	if err != nil {
		t.Fatal(err)
	}
	before, err := e.opt.QueryCost(sq)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(before.Plan, "index(") || !strings.Contains(before.Plan, "scan ") {
		t.Fatalf("key-only plan = %s", before.Plan)
	}
	cat := e.cat.Clone()
	cat.SetIndexes(ChooseIndexes(cat, e.translated(t, map[string]float64{"Q19": 1}, nil)))
	after, err := New(cat).QueryCost(sq)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cost >= before.Cost/5 || after.Rows != before.Rows {
		t.Errorf("indexed Q19 costs %.1f (rows %.1f), key-only %.1f (rows %.1f)", after.Cost, after.Rows, before.Cost, before.Rows)
	}
	if !strings.Contains(after.Plan, "index(Show.title)") {
		t.Errorf("indexed plan does not start from the title index: %s", after.Plan)
	}
	// A one-show intermediate enters the child relations by their
	// foreign-key indexes instead of scanning them.
	if strings.Contains(after.Plan, "hash") {
		t.Errorf("indexed plan still hashes a child relation: %s", after.Plan)
	}
}
