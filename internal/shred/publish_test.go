package shred

import (
	"strings"
	"testing"

	"legodb/internal/engine"
	"legodb/internal/relational"
	"legodb/internal/xmltree"
	"legodb/internal/xschema"
)

func TestRecursiveAnyElementRoundTrip(t *testing.T) {
	// The Section 3.2 untyped-document mapping: recursive wildcard types
	// produce self-referencing tables; shred and publish must handle the
	// recursion.
	ps := xschema.MustParseSchema(`
type AnyElement = ~[ AnyElement* ]`)
	cat, err := relational.Map(ps)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.ParseString(`<root><a><b/><c><d/></c></a><e/></root>`)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase(cat)
	if err := New(ps, cat, db).Shred(doc); err != nil {
		t.Fatalf("Shred: %v", err)
	}
	if got := db.Table("AnyElement").NumRows(); got != 6 {
		t.Fatalf("AnyElement rows = %d, want 6", got)
	}
	docs, err := NewPublisher(ps, cat, db).PublishAll()
	if err != nil {
		t.Fatalf("PublishAll: %v", err)
	}
	// PublishAll emits one document per root-table row; the true root is
	// the one with a NULL parent — it is the first inserted.
	if !xmltree.EqualCanonical(doc, docs[0]) {
		t.Fatalf("recursive round trip differs:\n%s\nvs\n%s", doc, docs[0])
	}
}

func TestScalarTypedRefRoundTrip(t *testing.T) {
	// A scalar-bodied named type under a repetition: text content rows.
	ps := xschema.MustParseSchema(`
type Doc = d[ Value* ]
type Value = String`)
	cat, err := relational.Map(ps)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.ParseString(`<d>hello world</d>`)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase(cat)
	if err := New(ps, cat, db).Shred(doc); err != nil {
		t.Fatalf("Shred: %v", err)
	}
	if got := db.Table("Value").NumRows(); got != 1 {
		t.Fatalf("Value rows = %d", got)
	}
	docs, err := NewPublisher(ps, cat, db).PublishAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(docs[0].Text); got != "hello world" {
		t.Fatalf("published text = %q", got)
	}
}

func TestPublisherErrorPaths(t *testing.T) {
	ps := xschema.MustParseSchema(`type D = d[ a[ String ] ]`)
	cat, err := relational.Map(ps)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase(cat)
	pub := NewPublisher(ps, cat, db)
	// Empty database publishes zero documents.
	docs, err := pub.PublishAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 0 {
		t.Fatalf("published %d docs from empty db", len(docs))
	}
	// Unknown type errors.
	if _, err := pub.publishInstance("Nope", 0); err == nil {
		t.Fatal("unknown type published")
	}
}

func TestShredderErrorPaths(t *testing.T) {
	ps := xschema.MustParseSchema(`type D = d[ a[ Integer ] ]`)
	cat, err := relational.Map(ps)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase(cat)
	sh := New(ps, cat, db)
	wrongRoot, _ := xmltree.ParseString(`<x><a>1</a></x>`)
	if err := sh.Shred(wrongRoot); err == nil {
		t.Error("wrong root element accepted")
	}
	badInt, _ := xmltree.ParseString(`<d><a>xyz</a></d>`)
	if err := sh.Shred(badInt); err == nil {
		t.Error("non-integer content accepted")
	}
	extra, _ := xmltree.ParseString(`<d><a>1</a><zz/></d>`)
	if err := sh.Shred(extra); err == nil {
		t.Error("extra child accepted")
	}
}

func TestOptionalGroupAbsentColumnsNull(t *testing.T) {
	ps := xschema.MustParseSchema(`
type D = d[ t[ String ], (x[ Integer ], y[ Integer ])? ]`)
	cat, err := relational.Map(ps)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase(cat)
	sh := New(ps, cat, db)
	with, _ := xmltree.ParseString(`<d><t>a</t><x>1</x><y>2</y></d>`)
	without, _ := xmltree.ParseString(`<d><t>b</t></d>`)
	if err := sh.Shred(with); err != nil {
		t.Fatal(err)
	}
	if err := sh.Shred(without); err != nil {
		t.Fatal(err)
	}
	tbl := db.Table("D")
	xi := tbl.ColumnIndex("x")
	if tbl.Cell(0, xi).IsNull() || !tbl.Cell(1, xi).IsNull() {
		t.Fatalf("optional column nullness wrong: %v / %v", tbl.Cell(0, xi), tbl.Cell(1, xi))
	}
	docs, err := NewPublisher(ps, cat, db).PublishAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("docs = %d", len(docs))
	}
	if docs[1].Child("x") != nil {
		t.Fatal("absent optional content resurrected")
	}
}

func TestDeepNestingRoundTrip(t *testing.T) {
	ps := xschema.MustParseSchema(`
type D = d[ l1[ l2[ l3[ v[ String ] ] ] ] ]`)
	cat, err := relational.Map(ps)
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := xmltree.ParseString(`<d><l1><l2><l3><v>deep</v></l3></l2></l1></d>`)
	db := engine.NewDatabase(cat)
	if err := New(ps, cat, db).Shred(doc); err != nil {
		t.Fatal(err)
	}
	tbl := db.Table("D")
	ci := columnFor(tbl.Def, "l1/l2/l3/v")
	if ci < 0 {
		t.Fatalf("no deep column; columns: %v", tbl.Def.Columns)
	}
	if got := tbl.Cell(0, ci).Str; got != "deep" {
		t.Fatalf("deep value = %q", got)
	}
	docs, err := NewPublisher(ps, cat, db).PublishAll()
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualCanonical(doc, docs[0]) {
		t.Fatalf("deep round trip differs:\n%s", docs[0])
	}
}
