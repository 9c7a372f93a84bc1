package core

import (
	"context"
	"maps"
	"math"
	"testing"
	"testing/quick"

	"legodb/internal/imdb"
	"legodb/internal/relational"
	"legodb/internal/transform"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

// TestIncrementalSavesTranslations checks the saving slot reuse exists
// for: a single greedy search must pay ≥1.5× fewer translations than
// plain Algorithm 4.1 (refGreedy) over the same workload.
func TestIncrementalSavesTranslations(t *testing.T) {
	opts := Options{Strategy: GreedySO, Cache: NewCostCache(0)}
	sinc, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sref := refGreedy(t, imdb.LookupWorkload(), opts)
	if sref.Translations == 0 {
		t.Fatal("reference search reports zero translations (counter not wired?)")
	}
	if sinc.Translations*3 > sref.Translations*2 {
		t.Errorf("single search paid %d translations, reference %d: want ≥1.5× reduction",
			sinc.Translations, sref.Translations)
	}
	if sinc.QueryCacheHits == 0 {
		t.Error("search reports zero slots reused from a base")
	}
}

// TestSlotReuseDependsExactlyOnDeps is the property test for the reuse
// rule: giving a candidate a fresh (equal-content) definition or table
// for a name the translation examined must stop reuse, and doing so for
// any other name must not.
func TestSlotReuseDependsExactlyOnDeps(t *testing.T) {
	names := []string{"A", "B", "C", "D"}
	deps := []string{"A", "B"} // what the simulated translation examined
	ps := &xschema.Schema{Root: "A", Names: names, Types: map[string]xschema.Type{}}
	cat := relational.NewCatalog()
	for _, n := range names {
		ps.Types[n] = &xschema.Scalar{Kind: xschema.StringKind}
		cat.Add(&relational.Table{Name: "t_" + n, TypeName: n, Rows: 1})
	}
	rec := newSlotRecord(deps, ps, cat, 1)
	prop := func(pick uint8, swapTable, swap bool) bool {
		name := names[int(pick)%len(names)]
		// A candidate shares every definition and table of its base, as
		// transform.Apply and the mapper's memo give it.
		next := &xschema.Schema{Root: ps.Root, Names: ps.Names, Types: maps.Clone(ps.Types)}
		ncat := &relational.Catalog{Tables: maps.Clone(cat.Tables), Order: cat.Order, TableOf: cat.TableOf}
		if swap && swapTable {
			tbl := *ncat.Tables["t_"+name]
			ncat.Tables["t_"+name] = &tbl
		} else if swap {
			def := *next.Types[name].(*xschema.Scalar)
			next.Types[name] = &def
		}
		inDeps := name == "A" || name == "B"
		return rec.reusable(next, ncat) == (!swap || !inDeps)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestSlotReuseChecksTables witnesses the rule's table half. The same
// schema evaluated under RootCount 2 from a base evaluated under
// RootCount 1 keeps every definition and changes every table's
// cardinality, so no slot may be reused: each slot must cost what plain
// evaluation under RootCount 2 costs it.
func TestSlotReuseChecksTables(t *testing.T) {
	ctx := context.Background()
	ps, err := InitialSchema(annotatedIMDB(t), GreedySO)
	if err != nil {
		t.Fatal(err)
	}
	w := imdb.LookupWorkload()
	w.AddUpdate(xquery.MustParseUpdate("INSERT imdb/show"), 10)
	base, err := (&Evaluator{Workload: w, RootCount: 1}).Evaluate(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	e := &Evaluator{Workload: w, RootCount: 2}
	got, err := e.evaluate(ctx, ps, &base)
	if err != nil {
		t.Fatal(err)
	}
	// Plain evaluation of a one-slot workload costs exactly that slot.
	slotCost := func(one *xquery.Workload) float64 {
		cfg, err := (&Evaluator{Workload: one, RootCount: 2}).refEvaluate(ctx, ps)
		if err != nil {
			t.Fatal(err)
		}
		return cfg.Cost
	}
	want := make([]float64, 0, len(got.slots))
	for _, en := range w.Entries {
		want = append(want, slotCost((&xquery.Workload{}).Add(en.Query, 1)))
	}
	for _, u := range w.Updates {
		want = append(want, slotCost((&xquery.Workload{}).AddUpdate(u.Update, 1)))
	}
	moved := 0
	for i, s := range got.slots {
		if math.Float64bits(s.cost) != math.Float64bits(want[i]) {
			t.Errorf("slot %d: cost %v after re-evaluation from a RootCount-1 base, plain evaluation %v", i, s.cost, want[i])
		}
		if math.Float64bits(want[i]) != math.Float64bits(base.slots[i].cost) {
			moved++
		}
	}
	if moved == 0 {
		t.Error("RootCount 2 moved no slot's cost; the test cannot witness the table half")
	}
	if hits, _ := e.QueryCacheStats(); hits != 0 {
		t.Errorf("%d slots reused although every table changed", hits)
	}
}

// TestMaterializeServedFromConfigCache: every cost-cache miss returns a
// complete configuration and a winning hit materializes from the current
// best, so a cold search pays exactly one evaluation per cost-cache miss
// that was not adopted from a concurrent leader — no winner is
// evaluated a second time.
func TestMaterializeServedFromConfigCache(t *testing.T) {
	for _, workers := range []int{1, 4} {
		res, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(),
			Options{Strategy: GreedySO, Workers: workers, Cache: NewCostCache(0)})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Trace) == 0 {
			t.Fatal("search made no move")
		}
		if want := res.Cache.Misses - res.Cache.Dedups; res.Evals != want {
			t.Errorf("workers %d: %d evaluations for %d cost-cache misses (%d adopted): a winner was re-evaluated",
				workers, res.Evals, res.Cache.Misses, res.Cache.Dedups)
		}
	}
}

// baseSnapshot renders everything of a complete configuration that a
// candidate's evaluation could corrupt by writing through a shared
// pointer.
type baseSnapshot struct {
	schema  string
	digests map[string]xschema.Fingerprint
	ddl     string
	tables  map[string][2]uint64 // Digest, Rows bits
}

func snapshotBase(cfg Config) baseSnapshot {
	s := baseSnapshot{
		schema:  cfg.Schema.String(),
		digests: cfg.Schema.TypeDigests(),
		ddl:     cfg.Catalog.SQL(),
		tables:  map[string][2]uint64{},
	}
	for name, tbl := range cfg.Catalog.Tables {
		s.tables[name] = [2]uint64{tbl.Digest, math.Float64bits(tbl.Rows)}
	}
	return s
}

// TestSearchLeavesBasesUntouched checks the contract slot reuse rests
// on: a candidate shares its base's definitions and tables by pointer,
// and neither may be written afterwards. Along the greedy-so, greedy-si
// and greedy-full paths every candidate is evaluated from its base, and
// the base must render, digest and map exactly as before.
func TestSearchLeavesBasesUntouched(t *testing.T) {
	ctx := context.Background()
	w := imdb.LookupWorkload()
	w.AddUpdate(xquery.MustParseUpdate("INSERT imdb/show"), 10)
	for _, strategy := range []Strategy{GreedySO, GreedySI, GreedyFull} {
		opts := referenceOptions(strategy)
		ps, err := InitialSchema(annotatedIMDB(t), strategy)
		if err != nil {
			t.Fatal(err)
		}
		e := &Evaluator{Workload: w, RootCount: 1}
		base, err := e.Evaluate(ctx, ps)
		if err != nil {
			t.Fatal(err)
		}
		tropts := transform.Options{Kinds: opts.kinds(), WildcardLabels: opts.WildcardLabels}
		for iter := 0; iter < 4; iter++ {
			before := snapshotBase(base)
			next := base
			for _, tr := range transform.Candidates(base.Schema, tropts) {
				cps, err := transform.Apply(base.Schema, tr)
				if err != nil {
					continue
				}
				cfg, err := e.evaluate(ctx, cps, &base)
				if err != nil {
					continue
				}
				if cfg.Cost < next.Cost {
					next = cfg
				}
			}
			after := snapshotBase(base)
			if after.schema != before.schema || after.ddl != before.ddl ||
				!maps.Equal(after.digests, before.digests) || !maps.Equal(after.tables, before.tables) {
				t.Fatalf("%v iteration %d: evaluating candidates changed their base", strategy, iter)
			}
			if next.Schema == base.Schema {
				break
			}
			base = next
		}
	}
}

func annotatedIMDB(t *testing.T) *xschema.Schema {
	t.Helper()
	s := imdb.Schema()
	if err := xstats.Annotate(s, imdb.Stats()); err != nil {
		t.Fatal(err)
	}
	return s
}
