package xquery_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"legodb/internal/core"
	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/sqlast"
	"legodb/internal/transform"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

// pinnedTranslations is the SHA-256 of every translation in the pinned
// corpus (see corpusDigest): a change to the translator that moves
// any rendered block, shape key, dependency list or error moves it.
const pinnedTranslations = "b42a4805ae13cd9a9d997fa047ca67ed8ae7e4dd90e7d45aaf1a3bc3442fcd8c"

// corpusSchema is one physical schema of the pinned corpus with its
// catalog.
type corpusSchema struct {
	label string
	ps    *xschema.Schema
	cat   *relational.Catalog
}

// corpusUpdates are the updates the pinned corpus resolves on the IMDB
// schemas: the ablation-updates workload's inserts, plus one update of
// every kind on outlined, inlined and union-partitioned paths.
var corpusUpdates = []string{
	"INSERT imdb/show",
	"INSERT imdb/actor",
	"INSERT imdb/show/aka",
	"DELETE imdb/show",
	"DELETE imdb/actor/played",
	"MODIFY imdb/show/title",
	"MODIFY imdb/show/description",
}

// imdbCorpusSchemas returns the IMDB schemas of the pinned corpus:
// all-inlined, all-outlined, and every first-iteration candidate of both
// initial p-schemas (greedy-so and greedy-si).
func imdbCorpusSchemas(t testing.TB) []corpusSchema {
	t.Helper()
	stats := imdb.Stats()
	annotated := imdb.Schema().Clone()
	if err := xstats.Annotate(annotated, stats); err != nil {
		t.Fatal(err)
	}
	var out []corpusSchema
	add := func(label string, ps *xschema.Schema) {
		cat, err := relational.Map(ps)
		if err != nil {
			t.Fatalf("%s: Map: %v", label, err)
		}
		out = append(out, corpusSchema{label: label, ps: ps, cat: cat})
	}
	inl, err := pschema.AllInlined(annotated)
	if err != nil {
		t.Fatal(err)
	}
	add("all-inlined", inl)
	outl, err := pschema.InitialOutlined(annotated)
	if err != nil {
		t.Fatal(err)
	}
	add("all-outlined", outl)
	for _, strategy := range []core.Strategy{core.GreedySO, core.GreedySI} {
		ps, err := core.InitialSchema(annotated, strategy)
		if err != nil {
			t.Fatal(err)
		}
		for _, cand := range transform.Candidates(ps, transform.Options{}) {
			next, err := transform.Apply(ps, cand)
			if err != nil {
				continue
			}
			if err := xstats.Annotate(next, stats); err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("%v %s", strategy, cand), next)
		}
	}
	return out
}

// randomCorpusSchemas returns the all-outlined and all-inlined forms of
// 50 random schemas, with queries naming their labels.
func randomCorpusSchemas() []corpusSchema {
	var out []corpusSchema
	for seed := int64(0); seed < 50; seed++ {
		s := xschema.RandomSchema(rand.New(rand.NewSource(seed)), 5)
		for k, mk := range []func(*xschema.Schema) (*xschema.Schema, error){pschema.InitialOutlined, pschema.AllInlined} {
			ps, err := mk(s)
			if err != nil {
				continue
			}
			cat, err := relational.Map(ps)
			if err != nil {
				continue
			}
			out = append(out, corpusSchema{label: fmt.Sprintf("random seed %d config %d", seed, k), ps: ps, cat: cat})
		}
	}
	return out
}

// randomCorpusQueries are path queries over the labels RandomSchema
// draws from, rooted at the schema's root element when it has one.
func randomCorpusQueries(ps *xschema.Schema) []*xquery.Query {
	root := "doc"
	if el, ok := ps.Types[ps.Root].(*xschema.Element); ok {
		root = el.Name
	}
	labels := []string{"show", "title", "year", "review", "aka", "name", "box", "text"}
	var out []*xquery.Query
	for i, a := range labels {
		b := labels[(i+1)%len(labels)]
		c := labels[(i+3)%len(labels)]
		for _, src := range []string{
			fmt.Sprintf("FOR $v IN %s/%s RETURN $v", root, a),
			fmt.Sprintf("FOR $v IN %s/%s WHERE $v/%s = c1 RETURN $v/%s", root, a, b, c),
			fmt.Sprintf("FOR $v IN %s/%s, $w IN $v/%s WHERE $w/%s = $v/%s RETURN $w", root, a, b, c, c),
			fmt.Sprintf("FOR $v IN %s/%s/%s RETURN $v, $v/%s", root, a, b, c),
			fmt.Sprintf("FOR $v IN %s/%s RETURN <r> $v/%s FOR $w IN $v/%s RETURN $w </r>", root, a, b, c),
		} {
			q, err := xquery.Parse(src)
			if err != nil {
				continue
			}
			q.Name = src
			out = append(out, q)
		}
	}
	return out
}

// hashTranslation folds one translation outcome into h: each block's SQL
// and shape key, then the dependency list, or the error.
func hashTranslation(h hash.Hash, label string, sq *sqlast.Query, deps []string, err error) {
	fmt.Fprintf(h, "== %s\n", label)
	if err != nil {
		fmt.Fprintf(h, "error %v\n", err)
		return
	}
	for _, b := range sq.Blocks {
		fmt.Fprintf(h, "%s\n%q\n", b.SQL(), b.ShapeKey())
	}
	fmt.Fprintf(h, "deps %s\n", strings.Join(deps, ","))
}

// corpusDigest translates the whole pinned corpus and returns its
// digest.
func corpusDigest(t testing.TB) string {
	h := sha256.New()
	var updates []*xquery.Update
	for _, src := range corpusUpdates {
		updates = append(updates, xquery.MustParseUpdate(src))
	}
	for _, cs := range imdbCorpusSchemas(t) {
		for _, name := range imdb.QueryNames() {
			sq, deps, err := xquery.TranslateDeps(imdb.Query(name), cs.ps, cs.cat)
			hashTranslation(h, cs.label+" "+name, sq, deps, err)
		}
		for _, u := range updates {
			targets, deps, err := xquery.ResolveUpdateDeps(u, cs.ps, cs.cat)
			fmt.Fprintf(h, "== %s %s\n", cs.label, u)
			if err != nil {
				fmt.Fprintf(h, "error %v\n", err)
				continue
			}
			fmt.Fprintf(h, "%+v\ndeps %s\n", targets, strings.Join(deps, ","))
		}
	}
	for _, cs := range randomCorpusSchemas() {
		for _, q := range randomCorpusQueries(cs.ps) {
			sq, deps, err := xquery.TranslateDeps(q, cs.ps, cs.cat)
			hashTranslation(h, cs.label+" "+q.Name, sq, deps, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTranslationsPinned: every translation of the pinned corpus — the
// Appendix C and Figure 5 queries and the corpus updates on all-inlined,
// all-outlined and every first-iteration candidate, and path queries on
// 50 random schemas — hashes to the digest the translator has always
// produced. Optimizations of the translator must not move it.
func TestTranslationsPinned(t *testing.T) {
	if got := corpusDigest(t); got != pinnedTranslations {
		t.Fatalf("translation corpus digest = %s, pinned %s", got, pinnedTranslations)
	}
}

// sliceBase is the address of a slice's backing array, or 0 when it has
// none.
func sliceBase[T any](s []T) uintptr {
	if cap(s) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(s)))
}

// clobber overwrites every element of a block's slices, and what a
// filter's RightCol points to.
func clobber(b *sqlast.Block) {
	for i := range b.Tables {
		b.Tables[i] = sqlast.TableRef{Table: "X", Alias: "x"}
	}
	for i := range b.Joins {
		b.Joins[i] = sqlast.Join{}
	}
	for i := range b.Filters {
		if rc := b.Filters[i].RightCol; rc != nil {
			*rc = sqlast.ColumnRef{Alias: "x", Column: "x"}
		}
		b.Filters[i] = sqlast.Filter{Op: sqlast.OpGe}
	}
	for i := range b.Projects {
		b.Projects[i] = sqlast.ColumnRef{Alias: "x", Column: "x"}
	}
}

// TestTranslatedBlocksShareNoStorage: the blocks of a translation own
// their slices. No two returned blocks share a backing array or a
// RightCol, overwriting one block leaves the others as they were, and
// overwriting every element of every returned block leaves a
// re-translation unchanged.
func TestTranslatedBlocksShareNoStorage(t *testing.T) {
	for _, cs := range imdbCorpusSchemas(t) {
		for _, name := range imdb.QueryNames() {
			q := imdb.Query(name)
			sq, err := xquery.Translate(q, cs.ps, cs.cat)
			if err != nil {
				continue
			}
			want := sq.SQL()
			rendered := make([]string, len(sq.Blocks))
			for i, b := range sq.Blocks {
				rendered[i] = b.SQL()
			}
			owner := map[uintptr]int{}
			claim := func(i int, p uintptr) {
				if p == 0 {
					return
				}
				if j, ok := owner[p]; ok {
					t.Fatalf("%s %s: blocks %d and %d share a backing array", cs.label, name, j, i)
				}
				owner[p] = i
			}
			for i, b := range sq.Blocks {
				claim(i, sliceBase(b.Tables))
				claim(i, sliceBase(b.Joins))
				claim(i, sliceBase(b.Filters))
				claim(i, sliceBase(b.Projects))
				for _, f := range b.Filters {
					if f.RightCol != nil {
						claim(i, uintptr(unsafe.Pointer(f.RightCol)))
					}
				}
			}
			for i, b := range sq.Blocks {
				clobber(b)
				for j := i + 1; j < len(sq.Blocks); j++ {
					if sq.Blocks[j].SQL() != rendered[j] {
						t.Fatalf("%s %s: overwriting block %d changed block %d", cs.label, name, i, j)
					}
				}
			}
			again, err := xquery.Translate(q, cs.ps, cs.cat)
			if err != nil {
				t.Fatalf("%s %s: re-translation failed: %v", cs.label, name, err)
			}
			if got := again.SQL(); got != want {
				t.Fatalf("%s %s: re-translation after overwriting the first changed:\n%s\nwant\n%s", cs.label, name, got, want)
			}
		}
	}
}
