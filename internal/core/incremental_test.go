package core

import (
	"context"
	"testing"
	"testing/quick"

	"legodb/internal/imdb"
	"legodb/internal/relational"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

// TestIncrementalSavesTranslations checks the perf claim the layers
// exist for: a fig11-style sweep (several searches over overlapping
// mixed workloads sharing one cache) must pay ≥2× fewer translations
// than plain Algorithm 4.1 (refGreedy) over the same workloads, and even
// a single greedy search must save a substantial fraction.
func TestIncrementalSavesTranslations(t *testing.T) {
	cache := NewCostCache(0)
	var ref, inc uint64
	for _, k := range []float64{0.25, 0.5, 0.75} {
		opts := Options{Strategy: GreedySI, Cache: cache}
		res, err := GreedySearch(context.Background(), imdb.Schema(), imdb.MixedWorkload(k), imdb.Stats(), opts)
		if err != nil {
			t.Fatal(err)
		}
		inc += res.Translations
		ref += refGreedy(t, imdb.MixedWorkload(k), opts).Translations
	}
	if ref == 0 {
		t.Fatal("reference sweep reports zero translations (counter not wired?)")
	}
	if inc*2 > ref {
		t.Errorf("incremental sweep paid %d translations, reference %d: want ≥2× reduction", inc, ref)
	}

	opts := Options{Strategy: GreedySO, Cache: NewCostCache(0)}
	sinc, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sref := refGreedy(t, imdb.LookupWorkload(), opts)
	if sinc.Translations*3 > sref.Translations*2 {
		t.Errorf("single search paid %d translations, reference %d: want ≥1.5× reduction",
			sinc.Translations, sref.Translations)
	}
	if sinc.QueryCacheHits == 0 {
		t.Error("incremental run reports zero per-query cache hits")
	}
}

// TestQueryCacheKeyDependsExactlyOnDeps is the property test for the
// per-query cache key: perturbing the digest of a table (or type) the
// translation examined must change the key, and perturbing anything the
// translation did not examine must not.
func TestQueryCacheKeyDependsExactlyOnDeps(t *testing.T) {
	names := []string{"A", "B", "C", "D"}
	deps := []string{"A", "B"} // what the simulated translation examined
	build := func() (map[string]xschema.Fingerprint, *relational.Catalog) {
		digests := make(map[string]xschema.Fingerprint)
		cat := &relational.Catalog{Tables: map[string]*relational.Table{}, TableOf: map[string]string{}}
		for i, n := range names {
			var fp xschema.Fingerprint
			fp[0] = byte(i + 1)
			digests[n] = fp
			tbl := &relational.Table{Name: "t_" + n, TypeName: n, Digest: uint64(i + 1)}
			cat.Tables[tbl.Name] = tbl
			cat.TableOf[n] = tbl.Name
		}
		return digests, cat
	}
	prop := func(pick uint8, delta uint64, mutateType bool) bool {
		name := names[int(pick)%len(names)]
		digests, cat := build()
		base := queryCacheKey("root", deps, digests, cat)
		if mutateType {
			fp := digests[name]
			for i := 0; i < 8; i++ {
				fp[i] ^= byte(delta >> (8 * i))
			}
			digests[name] = fp
		} else {
			cat.Table(cat.TableOf[name]).Digest ^= delta
		}
		mutated := queryCacheKey("root", deps, digests, cat)
		inDeps := name == "A" || name == "B"
		if delta == 0 || !inDeps {
			return mutated == base
		}
		return mutated != base
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestMaterializeServedFromConfigCache: after an incremental evaluation,
// materializing a cost-only Config for the same schema must not pay
// another evaluator run.
func TestMaterializeServedFromConfigCache(t *testing.T) {
	ps, err := InitialSchema(annotatedIMDB(t), GreedySO)
	if err != nil {
		t.Fatal(err)
	}
	eval := &Evaluator{Workload: imdb.LookupWorkload(), RootCount: 1}
	cfg, err := eval.Evaluate(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	evalsBefore := eval.Evals()
	got, err := eval.Materialize(context.Background(), Config{Schema: ps, Cost: cfg.Cost})
	if err != nil {
		t.Fatal(err)
	}
	if eval.Evals() != evalsBefore {
		t.Errorf("Materialize paid a full evaluation despite the config cache")
	}
	if got.Catalog == nil || got.Catalog.SQL() != cfg.Catalog.SQL() {
		t.Error("config cache returned a different catalog")
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
