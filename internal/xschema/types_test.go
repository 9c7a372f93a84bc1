package xschema

import (
	"math/rand"
	"strings"
	"testing"
)

func TestTypeStringRenderings(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`a[ String ]`, "a[ String ]"},
		{`@id[ Integer ]`, "@id[ Integer"},
		{`~[ String ]`, "~[ String ]"},
		{`(~!nyt)[ String ]`, "(~!nyt)[ String ]"},
		{`A | B`, "( A | B )"},
		{`A, B`, "A, B"},
		{`A?`, "A?"},
		{`A*`, "A*"},
		{`A+`, "A+"},
		{`A{2,5}`, "A{2,5}"},
		{`A{2,*}`, "A{2,*}"},
		{`(A, B)*`, "(A, B)*"},
	}
	schemaDefs := `
type A = x[ String ]
type B = y[ String ]
`
	for _, c := range cases {
		full := schemaDefs + "type T = " + c.src
		s, err := ParseSchema(full)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		got := s.Types["T"].String()
		if !strings.Contains(got, c.want) {
			t.Errorf("String(%q) = %q, want substring %q", c.src, got, c.want)
		}
	}
}

func TestScalarStatString(t *testing.T) {
	s := &Scalar{Kind: IntegerKind, Size: 4, Min: 1, Max: 9, Distinct: 5}
	if got := s.String(); got != "Integer<#4,#1,#9,#5>" {
		t.Errorf("integer stats = %q", got)
	}
	str := &Scalar{Kind: StringKind, Size: 40, Distinct: 7}
	if got := str.String(); got != "String<#40,#7>" {
		t.Errorf("string stats = %q", got)
	}
	bare := &Scalar{Kind: StringKind}
	if got := bare.String(); got != "String" {
		t.Errorf("bare = %q", got)
	}
}

func TestDeepEqualNegatives(t *testing.T) {
	parse := func(src string) Type {
		typ, err := ParseType(src)
		if err != nil {
			t.Fatalf("ParseType(%q): %v", src, err)
		}
		return typ
	}
	pairs := [][2]string{
		{`a[ String ]`, `b[ String ]`},
		{`a[ String ]`, `a[ Integer ]`},
		{`@x[ String ]`, `@y[ String ]`},
		{`~[ String ]`, `(~!a)[ String ]`},
		{`A, B`, `A`},
		{`A | B`, `A, B`},
		{`A{1,2}`, `A{1,3}`},
		{`a[ String ]`, `A`},
	}
	defs := `type A = x[String]
type B = y[String]
`
	_ = defs
	for _, p := range pairs {
		if DeepEqual(parse(p[0]), parse(p[1])) {
			t.Errorf("DeepEqual(%q, %q) = true", p[0], p[1])
		}
	}
	// Stats are ignored.
	if !DeepEqual(parse(`a[ String<#5,#2> ]`), parse(`a[ String ]`)) {
		t.Error("DeepEqual should ignore statistics")
	}
}

func TestCloneAllNodeKinds(t *testing.T) {
	src := `type T = e[ @a[ String<#3,#2> ], (~!x)[ Integer ], (A | B){2,7}, () ]
type A = p[ String ]
type B = q[ String ]`
	s := MustParseSchema(src)
	cp := Clone(s.Types["T"])
	if !DeepEqual(cp, s.Types["T"]) {
		t.Fatalf("clone differs: %s vs %s", cp, s.Types["T"])
	}
	// Mutating the clone must not touch the original.
	cp.(*Element).Content.(*Sequence).Items[0].(*Attribute).Name = "z"
	if s.Types["T"].(*Element).Content.(*Sequence).Items[0].(*Attribute).Name != "a" {
		t.Fatal("clone shares attribute")
	}
}

func TestValidateErrorBranches(t *testing.T) {
	s := NewSchema("Root")
	if err := s.Validate(); err == nil {
		t.Error("undefined root accepted")
	}
	s.Define("Root", &Element{Name: "r", Content: &Ref{Name: "Nope"}})
	if err := s.Validate(); err == nil {
		t.Error("dangling ref accepted")
	}
	s2 := NewSchema("Root")
	s2.Define("Root", &Element{Name: "r", Content: &Attribute{Name: "a", Content: &Element{Name: "x", Content: &Scalar{}}}})
	if err := s2.Validate(); err == nil {
		t.Error("non-scalar attribute accepted")
	}
	s3 := NewSchema("Root")
	s3.Define("Root", &Element{Name: "r", Content: &Repeat{Inner: &Scalar{}, Min: 5, Max: 2}})
	if err := s3.Validate(); err == nil {
		t.Error("inverted repetition bounds accepted")
	}
}

func TestRemoveAndDefine(t *testing.T) {
	s := NewSchema("A")
	s.Define("A", &Empty{})
	s.Define("B", &Empty{})
	s.Remove("A")
	if _, ok := s.Lookup("A"); ok {
		t.Fatal("Remove failed")
	}
	if len(s.Names) != 1 || s.Names[0] != "B" {
		t.Fatalf("names = %v", s.Names)
	}
	s.Remove("A") // removing twice is a no-op
	s.Define("B", &Scalar{})
	if len(s.Names) != 1 {
		t.Fatal("redefinition duplicated name")
	}
}

func TestParsePathHelper(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`imdb/show/title`, "imdb show title"},
		{`/imdb/show`, "imdb show"},
		{`document("x")/imdb`, "imdb"},
		{``, ""},
	}
	for _, c := range cases {
		got := strings.Join(ParsePath(c.src), " ")
		if got != c.want {
			t.Errorf("ParsePath(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestGeneratorRespectsBounds(t *testing.T) {
	s := MustParseSchema(`type R = r[ a[ String ]{2,4} ]`)
	for seed := int64(0); seed < 30; seed++ {
		g := NewGenerator(s, rand.New(rand.NewSource(seed)))
		doc, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		n := len(doc.ChildrenNamed("a"))
		if n < 2 || n > 4 {
			t.Fatalf("seed %d: %d occurrences, want 2..4", seed, n)
		}
	}
}

func TestGeneratorIntegerRanges(t *testing.T) {
	s := MustParseSchema(`type R = r[ v[ Integer<#4,#10,#20,#11> ] ]`)
	g := NewGenerator(s, rand.New(rand.NewSource(1)))
	for i := 0; i < 50; i++ {
		doc, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		v := doc.Child("v").Text
		if v < "10" && len(v) >= 2 {
			t.Fatalf("value %q below range", v)
		}
	}
}

func TestGeneratorWildcardExclusion(t *testing.T) {
	s := MustParseSchema(`type R = (~!nyt)[ String ]`)
	g := NewGenerator(s, rand.New(rand.NewSource(3)))
	for i := 0; i < 40; i++ {
		doc, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if doc.Name == "nyt" {
			t.Fatal("generator produced an excluded wildcard name")
		}
	}
}

func TestGeneratorChoiceFractions(t *testing.T) {
	s := MustParseSchema(`
type R = r[ (A | B) ]
type A = a[ String ]
type B = b[ String ]`)
	// Force a 90/10 split and verify the generator follows it roughly.
	r := s.Types["R"].(*Element)
	choice := r.Content.(*Choice)
	choice.Fractions = []float64{0.9, 0.1}
	g := NewGenerator(s, rand.New(rand.NewSource(5)))
	countA := 0
	const n = 300
	for i := 0; i < n; i++ {
		doc, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if doc.Child("a") != nil {
			countA++
		}
	}
	if frac := float64(countA) / n; frac < 0.8 || frac > 0.98 {
		t.Fatalf("A fraction = %g, want ~0.9", frac)
	}
}

func TestVisitCoversAllNodes(t *testing.T) {
	s := MustParseSchema(`type T = e[ @a[ String ], (~)[ Integer ], (A | B)*, x[ y[ String ] ] ]
type A = p[ String ]
type B = q[ String ]`)
	count := 0
	Visit(s.Types["T"], func(Type) { count++ })
	if count < 10 {
		t.Fatalf("Visit touched only %d nodes", count)
	}
}
