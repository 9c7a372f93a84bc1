package shred

import (
	"math/rand"
	"testing"
	"testing/quick"

	"legodb/internal/engine"
	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/transform"
	"legodb/internal/xmltree"
	"legodb/internal/xschema"
)

// build maps a p-schema and loads docs, returning the parts.
func build(t *testing.T, ps *xschema.Schema, docs ...*xmltree.Node) (*relational.Catalog, *engine.Database) {
	t.Helper()
	cat, err := relational.Map(ps)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	db := engine.NewDatabase(cat)
	sh := New(ps, cat, db)
	for _, d := range docs {
		if err := sh.Shred(d); err != nil {
			t.Fatalf("Shred: %v", err)
		}
	}
	return cat, db
}

const showSchema = `
type IMDB = imdb[ Show{0,*} ]
type Show = show [ @type[ String ],
    title[ String ],
    year[ Integer ],
    Aka{0,*},
    Review*,
    ( Movie | TV ) ]
type Aka = aka[ String ]
type Review = review[ ~[ String ] ]
type Movie = box_office[ Integer ], video_sales[ Integer ]
type TV = seasons[ Integer ], description[ String ], Episode*
type Episode = episode[ name[ String ], guest_director[ String ] ]
`

func sampleDoc(t *testing.T) *xmltree.Node {
	t.Helper()
	doc, err := xmltree.ParseString(`<imdb>
  <show type="Movie">
    <title>Fugitive, The</title><year>1993</year>
    <aka>Auf der Flucht</aka><aka>Fuggitivo, Il</aka>
    <review><suntimes>Two thumbs up!</suntimes></review>
    <review><nyt>standard summer fare</nyt></review>
    <box_office>183752965</box_office><video_sales>72450220</video_sales>
  </show>
  <show type="TVseries">
    <title>X Files, The</title><year>1994</year>
    <aka>Aux frontieres du Reel</aka>
    <seasons>10</seasons>
    <description>paranoia and aliens</description>
    <episode><name>Ghost in the Machine</name><guest_director>Jerrold Freedman</guest_director></episode>
    <episode><name>Fallen Angel</name><guest_director>Larry Shaw</guest_director></episode>
  </show>
</imdb>`)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestShredCounts(t *testing.T) {
	ps := xschema.MustParseSchema(showSchema)
	_, db := build(t, ps, sampleDoc(t))
	want := map[string]int{
		"IMDB": 1, "Show": 2, "Aka": 3, "Review": 2,
		"Movie": 1, "TV": 1, "Episode": 2,
	}
	for table, n := range want {
		if got := db.Table(table).NumRows(); got != n {
			t.Errorf("%s rows = %d, want %d\n%s", table, got, n, db)
		}
	}
}

func TestShredColumnValues(t *testing.T) {
	ps := xschema.MustParseSchema(showSchema)
	_, db := build(t, ps, sampleDoc(t))
	show := db.Table("Show")
	title := show.ColumnIndex("title")
	year := show.ColumnIndex("year")
	typ := show.ColumnIndex("type")
	if got := show.Cell(0, title).Str; got != "Fugitive, The" {
		t.Errorf("title = %q", got)
	}
	if got := show.Cell(0, year).Int; got != 1993 {
		t.Errorf("year = %d", got)
	}
	if got := show.Cell(1, typ).Str; got != "TVseries" {
		t.Errorf("type = %q", got)
	}
	review := db.Table("Review")
	tilde := review.ColumnIndex("tilde")
	data := review.ColumnIndex("data")
	if got := review.Cell(1, tilde).Str; got != "nyt" {
		t.Errorf("tilde = %q", got)
	}
	if got := review.Cell(0, data).Str; got != "Two thumbs up!" {
		t.Errorf("review text = %q", got)
	}
	movie := db.Table("Movie")
	bo := movie.ColumnIndex("box_office")
	if got := movie.Cell(0, bo).Int; got != 183752965 {
		t.Errorf("box_office = %d", got)
	}
	fk := movie.ColumnIndex("parent_Show")
	if got := movie.Cell(0, fk).Int; got != 1 {
		t.Errorf("movie parent = %d", got)
	}
	episode := db.Table("Episode")
	efk := episode.ColumnIndex("parent_TV")
	if got := episode.Cell(0, efk).Int; got != 1 {
		t.Errorf("episode parent TV id = %d", got)
	}
}

func TestShredRejectsInvalidDocument(t *testing.T) {
	ps := xschema.MustParseSchema(showSchema)
	cat, _ := relational.Map(ps)
	db := engine.NewDatabase(cat)
	sh := New(ps, cat, db)
	bad, _ := xmltree.ParseString(`<imdb><show type="Movie"><year>1993</year></show></imdb>`)
	if err := sh.Shred(bad); err == nil {
		t.Fatal("invalid document shredded without error")
	}
}

func TestPublishRoundTrip(t *testing.T) {
	ps := xschema.MustParseSchema(showSchema)
	doc := sampleDoc(t)
	cat, db := build(t, ps, doc)
	pub := NewPublisher(ps, cat, db)
	docs, err := pub.PublishAll()
	if err != nil {
		t.Fatalf("PublishAll: %v", err)
	}
	if len(docs) != 1 {
		t.Fatalf("published %d documents", len(docs))
	}
	if !ps.Valid(docs[0]) {
		t.Fatalf("published document invalid:\n%s", docs[0])
	}
	if !xmltree.EqualCanonical(doc, docs[0]) {
		t.Fatalf("round trip differs:\n--- original ---\n%s\n--- published ---\n%s", doc, docs[0])
	}
}

// TestPropertyRoundTripAcrossConfigurations: for random documents and
// several storage configurations (outlined, inlined, union-distributed,
// wildcard-materialized), publish(shred(doc)) is canonically equal to
// doc.
func TestPropertyRoundTripAcrossConfigurations(t *testing.T) {
	base := xschema.MustParseSchema(showSchema)
	configs := map[string]*xschema.Schema{"base": base}
	if out, err := pschema.InitialOutlined(base); err == nil {
		configs["outlined"] = out
	} else {
		t.Fatal(err)
	}
	if inl, err := pschema.AllInlined(base); err == nil {
		configs["all-inlined"] = inl
	} else {
		t.Fatal(err)
	}
	if cands := transform.Candidates(base, transform.Options{Kinds: []transform.Kind{transform.KindUnionDistribute}}); len(cands) > 0 {
		dist, err := transform.Apply(base, cands[0])
		if err != nil {
			t.Fatal(err)
		}
		configs["distributed"] = dist
	}
	if cands := transform.Candidates(base, transform.Options{
		Kinds:          []transform.Kind{transform.KindWildcardMaterialize},
		WildcardLabels: map[string]float64{"nyt": 0.25},
	}); len(cands) > 0 {
		wild, err := transform.Apply(base, cands[0])
		if err != nil {
			t.Fatal(err)
		}
		configs["wildcard"] = wild
	}
	for name, ps := range configs {
		ps := ps
		t.Run(name, func(t *testing.T) {
			cat, err := relational.Map(ps)
			if err != nil {
				t.Fatal(err)
			}
			f := func(seed int64) bool {
				gen := xschema.NewGenerator(base, rand.New(rand.NewSource(seed)))
				doc, err := gen.Generate()
				if err != nil {
					return false
				}
				db := engine.NewDatabase(cat)
				if err := New(ps, cat, db).Shred(doc); err != nil {
					t.Logf("seed %d: shred: %v\n%s", seed, err, doc)
					return false
				}
				docs, err := NewPublisher(ps, cat, db).PublishAll()
				if err != nil || len(docs) != 1 {
					t.Logf("seed %d: publish: %v", seed, err)
					return false
				}
				if !xmltree.EqualCanonical(doc, docs[0]) {
					t.Logf("seed %d: round trip differs:\n%s\nvs\n%s", seed, doc, docs[0])
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestShredMultipleDocuments(t *testing.T) {
	ps := xschema.MustParseSchema(showSchema)
	d1 := sampleDoc(t)
	d2 := sampleDoc(t)
	cat, db := build(t, ps, d1, d2)
	if got := db.Table("IMDB").NumRows(); got != 2 {
		t.Fatalf("IMDB rows = %d", got)
	}
	if got := db.Table("Show").NumRows(); got != 4 {
		t.Fatalf("Show rows = %d", got)
	}
	pub := NewPublisher(ps, cat, db)
	docs, err := pub.PublishAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("published %d docs", len(docs))
	}
	for _, d := range docs {
		if !xmltree.EqualCanonical(d1, d) {
			t.Fatal("multi-document round trip differs")
		}
	}
}

func TestShredIMDBGeneratedData(t *testing.T) {
	s := imdb.Schema()
	ps, err := pschema.AllInlined(s)
	if err != nil {
		t.Fatal(err)
	}
	doc := imdb.Generate(imdb.GenOptions{Shows: 30, Seed: 9})
	cat, db := build(t, ps, doc)
	if got := db.Table("Show").NumRows(); got != 30 {
		t.Fatalf("Show rows = %d", got)
	}
	pub := NewPublisher(ps, cat, db)
	docs, err := pub.PublishAll()
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualCanonical(doc, docs[0]) {
		t.Fatal("IMDB round trip differs")
	}
	_ = cat
}

func TestRepetitionSplitShredding(t *testing.T) {
	// After split + inline, the first aka lands in the Show column and
	// the rest in the Aka table.
	base := xschema.MustParseSchema(`
type IMDB = imdb[ Show{0,*} ]
type Show = show[ title[ String ], Aka{1,10} ]
type Aka = aka[ String ]`)
	split, err := transform.Apply(base, transform.Candidates(base,
		transform.Options{Kinds: []transform.Kind{transform.KindRepetitionSplit}})[0])
	if err != nil {
		t.Fatal(err)
	}
	var inl *transform.Transformation
	for _, tr := range transform.Candidates(split, transform.Options{Kinds: []transform.Kind{transform.KindInline}}) {
		tr := tr
		inl = &tr
		break
	}
	if inl == nil {
		t.Fatal("no inline candidate after split")
	}
	ps, err := transform.Apply(split, *inl)
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := xmltree.ParseString(`<imdb><show><title>T</title><aka>a1</aka><aka>a2</aka><aka>a3</aka></show></imdb>`)
	cat, db := build(t, ps, doc)
	show := db.Table("Show")
	akaCol := show.ColumnIndex("aka")
	if akaCol < 0 {
		t.Fatalf("no aka column: %v", show.Def.Columns)
	}
	if got := show.Cell(0, akaCol).Str; got != "a1" {
		t.Errorf("inlined aka = %q, want a1", got)
	}
	if got := db.Table("Aka").NumRows(); got != 2 {
		t.Errorf("Aka rows = %d, want 2", got)
	}
	// Round trip restores all three akas.
	docs, err := NewPublisher(ps, cat, db).PublishAll()
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualCanonical(doc, docs[0]) {
		t.Fatalf("split round trip differs:\n%s\nvs\n%s", doc, docs[0])
	}
}
