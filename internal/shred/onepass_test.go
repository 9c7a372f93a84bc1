package shred

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"legodb/internal/engine"
	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/transform"
	"legodb/internal/xmltree"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

// tableImage is what a shred leaves behind in one table: its rows in
// order (ids, foreign keys and NULLs included) and its next id.
type tableImage struct {
	Rows []engine.Row
	Next int64
}

func imageOf(cat *relational.Catalog, db *engine.Database) map[string]tableImage {
	out := make(map[string]tableImage, len(cat.Order))
	for _, name := range cat.Order {
		t := db.Table(name)
		img := tableImage{Next: t.PeekNextID()}
		for pos := 0; pos < t.NumRows(); pos++ {
			img.Rows = append(img.Rows, t.Row(pos))
		}
		out[name] = img
	}
	return out
}

// firstDifference names the first table whose images differ.
func firstDifference(cat *relational.Catalog, a, b map[string]tableImage) string {
	for _, name := range cat.Order {
		if !reflect.DeepEqual(a[name], b[name]) {
			return fmt.Sprintf("table %s:\n  one-pass  %v\n  reference %v", name, a[name], b[name])
		}
	}
	return ""
}

// imdbConfigurations are the IMDB storage configurations the experiments
// use — Figure 4's three storage maps, both initial configurations — and
// a few random walks through the transformation space from each end.
func imdbConfigurations(t testing.TB) map[string]*xschema.Schema {
	t.Helper()
	s := imdb.Schema()
	if err := xstats.Annotate(s, imdb.Stats()); err != nil {
		t.Fatal(err)
	}
	must := func(ps *xschema.Schema, err error) *xschema.Schema {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	map1 := must(pschema.AllInlined(s))
	outlined := must(pschema.InitialOutlined(s))
	inlined := must(pschema.InitialInlined(s, pschema.InlineOptions{}))
	configs := map[string]*xschema.Schema{"all-inlined": map1, "all-outlined": outlined, "initial-inlined": inlined}
	for _, tr := range transform.Candidates(map1, transform.Options{
		Kinds:          []transform.Kind{transform.KindWildcardMaterialize},
		WildcardLabels: map[string]float64{"nyt": 0.25},
	}) {
		configs["map2-"+tr.Loc.Type] = must(transform.Apply(map1, tr))
	}
	if cands := transform.Candidates(inlined, transform.Options{Kinds: []transform.Kind{transform.KindUnionDistribute}}); len(cands) > 0 {
		map3 := must(transform.Apply(inlined, cands[0]))
		for guard := 0; guard < 100; guard++ {
			inl := transform.Candidates(map3, transform.Options{Kinds: []transform.Kind{transform.KindInline}})
			if len(inl) == 0 {
				break
			}
			map3 = must(transform.Apply(map3, inl[0]))
		}
		configs["map3"] = map3
	}
	r := rand.New(rand.NewSource(25))
	for start, ps := range map[string]*xschema.Schema{"outlined": outlined, "inlined": map1} {
		for walk := 0; walk < 3; walk++ {
			cur := ps
			for step := 0; step < 6; step++ {
				cands := transform.Candidates(cur, transform.Options{WildcardLabels: map[string]float64{"nyt": 0.25}})
				if len(cands) == 0 {
					break
				}
				if next, err := transform.Apply(cur, cands[r.Intn(len(cands))]); err == nil {
					cur = next
				}
			}
			configs[fmt.Sprintf("walk-%s-%d", start, walk)] = cur
		}
	}
	return configs
}

// sameImage shreds docs with the one-pass shredder and the reference
// into fresh databases under the same restriction and compares the
// images. It reports whether the reference accepted every document;
// when it did, the one-pass shredder must have too, with the same image.
func sameImage(t *testing.T, label string, ps *xschema.Schema, cat *relational.Catalog, restrict map[string]bool, docs ...*xmltree.Node) bool {
	t.Helper()
	db, refDB := engine.NewDatabase(cat), engine.NewDatabase(cat)
	sh := New(ps, cat, db)
	sh.Restrict = restrict
	ref := &refShredder{Schema: ps, Cat: cat, DB: refDB, Restrict: restrict}
	for i, d := range docs {
		if err := ref.Shred(d); err != nil {
			return false
		}
		if err := sh.Shred(d); err != nil {
			t.Fatalf("%s: document %d: the reference shreds it, the one-pass shredder says %v", label, i, err)
		}
	}
	got, want := imageOf(cat, db), imageOf(cat, refDB)
	if d := firstDifference(cat, got, want); d != "" {
		t.Fatalf("%s: images differ at %s", label, d)
	}
	return true
}

// restrictEveryOther keeps every other table of the catalog.
func restrictEveryOther(cat *relational.Catalog) map[string]bool {
	keep := make(map[string]bool)
	for i, name := range cat.Order {
		if i%2 == 0 {
			keep[name] = true
		}
	}
	return keep
}

// TestShredReferenceIMDB: on every IMDB configuration, for documents
// from the IMDB generator and from the schema-driven generator, with and
// without a restriction, the one-pass shredder leaves exactly the image
// the reference shredder leaves.
func TestShredReferenceIMDB(t *testing.T) {
	base := imdb.Schema()
	for name, ps := range imdbConfigurations(t) {
		cat, err := relational.Map(ps)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		docs := []*xmltree.Node{imdb.Generate(imdb.GenOptions{Shows: 30, Seed: 4, AkasPerShow: 2, ReviewsPerShow: 2})}
		gen := xschema.NewGenerator(base, rand.New(rand.NewSource(int64(len(name)))))
		for i := 0; i < 8; i++ {
			doc, err := gen.Generate()
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, doc)
		}
		for _, restrict := range []map[string]bool{nil, restrictEveryOther(cat)} {
			if !sameImage(t, name, ps, cat, restrict, docs...) {
				t.Fatalf("%s: the reference rejects a valid IMDB document", name)
			}
		}
	}
}

// TestShredReferenceRandomSchemas: the same differential over random
// schemas made physical three ways, with generated documents, and the
// acceptance rule on those documents and perturbations of them.
// Documents the reference rejects (it refuses some the validator
// accepts — a scalar-typed reference with no text, say) are held to the
// acceptance rule only; enough must be compared to mean something.
func TestShredReferenceRandomSchemas(t *testing.T) {
	compared := 0
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := xschema.RandomSchema(r, 5)
		for k, mk := range []func(*xschema.Schema) (*xschema.Schema, error){
			pschema.InitialOutlined, pschema.AllInlined, pschema.Stratify,
		} {
			ps, err := mk(s)
			if err != nil {
				continue
			}
			if cyclesInPlace(ps) {
				continue
			}
			cat, err := relational.Map(ps)
			if err != nil {
				continue
			}
			gen := xschema.NewGenerator(s, rand.New(rand.NewSource(seed)))
			gen.MaxDepth = 4
			for i := 0; i < 4; i++ {
				doc, err := gen.Generate()
				if err != nil || s.ValidateDocument(doc) != nil {
					continue
				}
				label := fmt.Sprintf("seed %d config %d doc %d\n%s", seed, k, i, ps)
				if sameImage(t, label, ps, cat, nil, doc) {
					sameImage(t, label+" (restricted)", ps, cat, restrictEveryOther(cat), doc)
					compared++
				}
				sh := New(ps, cat, engine.NewDatabase(cat))
				acceptsWhatValidates(t, sh, doc)
				for j := 0; j < 3; j++ {
					acceptsWhatValidates(t, sh, perturb(doc, r))
				}
			}
		}
	}
	t.Logf("%d random documents compared", compared)
	if compared < 200 {
		t.Fatalf("only %d random documents compared", compared)
	}
}

// cyclesInPlace reports whether a named type without an element of its
// own (a group, alias or scalar type) can reach itself through
// references outside any element: matching such a type can recurse
// without consuming an item, in both shredders and in the validator.
func cyclesInPlace(s *xschema.Schema) bool {
	inPlace := make(map[string][]string)
	for name, def := range s.Types {
		switch def.(type) {
		case *xschema.Element, *xschema.Wildcard:
			continue
		}
		var refs func(t xschema.Type)
		refs = func(t xschema.Type) {
			switch t := t.(type) {
			case *xschema.Ref:
				inPlace[name] = append(inPlace[name], t.Name)
			case *xschema.Sequence:
				for _, it := range t.Items {
					refs(it)
				}
			case *xschema.Choice:
				for _, alt := range t.Alts {
					refs(alt)
				}
			case *xschema.Repeat:
				refs(t.Inner)
			}
		}
		refs(def)
		inPlace[name] = append(inPlace[name], "") // present even without edges
	}
	state := make(map[string]int) // 1 on the path, 2 done
	var cyclic func(string) bool
	cyclic = func(name string) bool {
		switch state[name] {
		case 1:
			return true
		case 2:
			return false
		}
		state[name] = 1
		for _, next := range inPlace[name] {
			if _, ok := inPlace[next]; ok && cyclic(next) {
				return true
			}
		}
		state[name] = 2
		return false
	}
	for name := range inPlace {
		if cyclic(name) {
			return true
		}
	}
	return false
}

// perturb returns a copy of doc with one node changed the way an invalid
// document differs from a valid one: an attribute added, an element
// renamed, a text replaced by a non-integer, a child dropped or
// duplicated.
func perturb(doc *xmltree.Node, r *rand.Rand) *xmltree.Node {
	cp := doc.Clone()
	var nodes []*xmltree.Node
	var walk func(*xmltree.Node)
	walk = func(n *xmltree.Node) {
		nodes = append(nodes, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(cp)
	n := nodes[r.Intn(len(nodes))]
	switch r.Intn(5) {
	case 0:
		n.SetAttr([]string{"lang", "type", "id"}[r.Intn(3)], "en")
	case 1:
		n.Name = []string{"show", "title", "aka", "nyt", "bogus"}[r.Intn(5)]
	case 2:
		n.Text = []string{"x1", "", "12", "twelve"}[r.Intn(4)]
	case 3:
		if len(n.Children) > 0 {
			i := r.Intn(len(n.Children))
			n.Children = append(n.Children[:i:i], n.Children[i+1:]...)
		}
	default:
		if len(n.Children) > 0 {
			n.Children = append(n.Children, n.Children[r.Intn(len(n.Children))].Clone())
		}
	}
	return cp
}

// acceptsWhatValidates shreds doc and checks invariant 19: the shred
// fails exactly when ValidateDocument does, and a failed shred writes
// nothing — no row, no id burned.
func acceptsWhatValidates(t *testing.T, sh *Shredder, doc *xmltree.Node) {
	t.Helper()
	before := imageOf(sh.Cat, sh.DB)
	shredErr := sh.Shred(doc)
	validErr := sh.Schema.ValidateDocument(doc)
	if (shredErr == nil) != (validErr == nil) {
		t.Fatalf("Shred says %v, ValidateDocument says %v\n%s", shredErr, validErr, doc)
	}
	if shredErr != nil {
		if d := firstDifference(sh.Cat, imageOf(sh.Cat, sh.DB), before); d != "" {
			t.Fatalf("rejected document wrote to %s", d)
		}
	}
}

// FuzzShredAcceptance: Shred fails exactly when ValidateDocument does,
// and a failed Shred writes nothing — no row, no id burned.
func FuzzShredAcceptance(f *testing.F) {
	configs := imdbConfigurations(f)
	names := make([]string, 0, len(configs))
	for name := range configs {
		names = append(names, name)
	}
	slices.Sort(names)
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, which uint8) {
		r := rand.New(rand.NewSource(seed))
		ps := configs[names[int(which)%len(names)]]
		cat, err := relational.Map(ps)
		if err != nil {
			t.Fatal(err)
		}
		db := engine.NewDatabase(cat)
		sh := New(ps, cat, db)
		valid := imdb.Generate(imdb.GenOptions{Shows: 3, Seed: seed, AkasPerShow: 1, ReviewsPerShow: 1})
		if err := sh.Shred(valid); err != nil {
			t.Fatalf("valid document rejected: %v", err)
		}
		doc := valid
		for i := 0; i <= r.Intn(3); i++ {
			doc = perturb(doc, r)
		}
		acceptsWhatValidates(t, sh, doc)
	})
}

// TestShredRejectsAttributeOnInlineLeaf is the regression test for the
// root-level accept rule: an inline scalar element may not carry an
// attribute the schema does not declare, where no named-type check runs
// either, and the rejected document leaves the tables untouched.
func TestShredRejectsAttributeOnInlineLeaf(t *testing.T) {
	ps := xschema.MustParseSchema(`
type R = r[ name[ String ], Item* ]
type Item = item[ String ]`)
	cat, err := relational.Map(ps)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase(cat)
	sh := New(ps, cat, db)
	bad, _ := xmltree.ParseString(`<r><name lang="en">x</name><item>a</item></r>`)
	if ps.ValidateDocument(bad) == nil {
		t.Fatal("the schema accepts the attribute: the test is void")
	}
	if err := sh.Shred(bad); err == nil {
		t.Fatal("a document the schema rejects was shredded")
	}
	if n := db.RowCount(); n != 0 {
		t.Fatalf("the rejected document wrote %d rows", n)
	}
	if next := db.Table("Item").PeekNextID(); next != 1 {
		t.Fatalf("the rejected document burned ids: next Item id %d", next)
	}
	good, _ := xmltree.ParseString(`<r><name>x</name><item>a</item></r>`)
	if err := sh.Shred(good); err != nil {
		t.Fatal(err)
	}
	if got := db.Table("Item").Row(0)[db.Table("Item").ColumnIndex(cat.Tables["Item"].Key())]; got != engine.IntVal(1) {
		t.Fatalf("first Item id = %v, want 1", got)
	}
}

// TestInsertChildPicksTypeByContent: two child types share an element
// name; a fragment goes to the one whose content it matches.
func TestInsertChildPicksTypeByContent(t *testing.T) {
	ps := xschema.MustParseSchema(`
type Root = root[ (Movie | TV)* ]
type Movie = show[ title[ String ], box_office[ Integer ] ]
type TV = show[ title[ String ], seasons[ Integer ] ]`)
	cat, err := relational.Map(ps)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase(cat)
	sh := New(ps, cat, db)
	doc, _ := xmltree.ParseString(`<root/>`)
	if err := sh.Shred(doc); err != nil {
		t.Fatal(err)
	}
	tv, _ := xmltree.ParseString(`<show><title>Y</title><seasons>3</seasons></show>`)
	movie, _ := xmltree.ParseString(`<show><title>X</title><box_office>5</box_office></show>`)
	neither, _ := xmltree.ParseString(`<show><title>Z</title><seasons>many</seasons></show>`)
	for _, n := range []*xmltree.Node{tv, movie, tv} {
		if _, err := sh.InsertChild("Root", 1, n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sh.InsertChild("Root", 1, neither); err == nil {
		t.Fatal("a show of neither type was inserted")
	}
	if m, v := db.Table("Movie").NumRows(), db.Table("TV").NumRows(); m != 1 || v != 2 {
		t.Fatalf("Movie rows %d, TV rows %d; want 1 and 2", m, v)
	}
}

// allocatedPerByte shreds doc into a fresh database and returns the
// bytes allocated per byte of its XML text.
func allocatedPerByte(ps *xschema.Schema, cat *relational.Catalog, doc *xmltree.Node) (float64, error) {
	size := len(doc.String())
	sh := New(ps, cat, engine.NewDatabase(cat))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err := sh.Shred(doc)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(size), err
}

// TestShredAllocsLinear: shredding allocates in proportion to the
// document. The bytes allocated per XML byte on a 400-show document are
// at most 1.5 times those on a 50-show one (a shredder that copies
// every prefix of a repetition allocates 4.4 times as much).
func TestShredAllocsLinear(t *testing.T) {
	ps, err := pschema.AllInlined(imdb.Schema())
	if err != nil {
		t.Fatal(err)
	}
	cat, err := relational.Map(ps)
	if err != nil {
		t.Fatal(err)
	}
	small, err := allocatedPerByte(ps, cat, imdb.Generate(imdb.GenOptions{Shows: 50, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	large, err := allocatedPerByte(ps, cat, imdb.Generate(imdb.GenOptions{Shows: 400, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("allocated per XML byte: %.1f at 50 shows, %.1f at 400", small, large)
	if large > 1.5*small {
		t.Errorf("400 shows allocate %.1f B per XML byte, 50 shows %.1f: more than 1.5x", large, small)
	}
}

// BenchmarkShredIMDB shreds one generated IMDB document into the
// all-inlined configuration (parse excluded); bytes/op over the document
// size is the shred.alloc_bytes_per_xml_byte of the benchmark module.
func BenchmarkShredIMDB(b *testing.B) {
	ps, err := pschema.AllInlined(imdb.Schema())
	if err != nil {
		b.Fatal(err)
	}
	cat, err := relational.Map(ps)
	if err != nil {
		b.Fatal(err)
	}
	for _, shows := range []int{50, 400} {
		doc := imdb.Generate(imdb.GenOptions{Shows: shows, Seed: 1})
		b.Run(fmt.Sprintf("shows=%d", shows), func(b *testing.B) {
			b.SetBytes(int64(len(doc.String())))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := New(ps, cat, engine.NewDatabase(cat)).Shred(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
