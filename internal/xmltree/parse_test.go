package xmltree_test

import (
	"encoding/xml"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"legodb/internal/imdb"
	"legodb/internal/xmltree"
	"legodb/internal/xschema"
)

// refParse is the encoding/xml Token loop Parse was first built on,
// kept as the reference the scanner must reproduce. It carries the one
// rule the scanner added: character data outside the root element must
// be whitespace, a leading byte-order mark aside.
func refParse(src string) (*xmltree.Node, error) {
	dec := xml.NewDecoder(strings.NewReader(strings.TrimPrefix(src, "\uFEFF")))
	var stack []*xmltree.Node
	var root *xmltree.Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := xmltree.NewElement(t.Name.Local)
			for _, a := range t.Attr {
				n.SetAttr(a.Name.Local, a.Value)
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, errors.New("multiple root elements")
				}
				root = n
			} else {
				top := stack[len(stack)-1]
				top.Children = append(top.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("unbalanced end element %q", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			text := string(t)
			if len(stack) == 0 {
				if strings.Trim(text, " \t\r\n") != "" {
					return nil, errors.New("text outside the root element")
				}
			} else if strings.TrimSpace(text) != "" {
				stack[len(stack)-1].Text += strings.TrimSpace(text)
			}
		}
	}
	if root == nil {
		return nil, errors.New("empty document")
	}
	if len(stack) != 0 {
		return nil, errors.New("unclosed elements")
	}
	return root, nil
}

// matchesReference parses src with the scanner and the reference and
// fails unless both reject it or both build Equal trees. The scanner
// reads src from a byte slice that is overwritten once it returns, so a
// tree holding views of its input shows as a difference.
func matchesReference(t *testing.T, src string) (accepted bool) {
	t.Helper()
	want, wantErr := refParse(src)
	buf := []byte(src)
	got, err := xmltree.ParseString(unsafe.String(unsafe.SliceData(buf), len(buf)))
	for i := range buf {
		buf[i] = '#'
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("scanner: %v, reference: %v, on\n%q", err, wantErr, src)
	}
	if err != nil {
		if !strings.HasPrefix(err.Error(), "xmltree: parse: ") {
			t.Fatalf("error %q lacks the package prefix", err)
		}
		return false
	}
	if !xmltree.Equal(got, want) {
		t.Fatalf("trees differ on\n%q\nscanner:\n%s\nreference:\n%s", src, got, want)
	}
	return true
}

// parseSeeds are the documents the differential starts from: markup the
// parser skips, every kind of reference, line ends, prefixed names,
// non-ASCII input, and each way a document can be malformed.
func parseSeeds() []string {
	return []string{
		imdb.Generate(imdb.GenOptions{Shows: 2, Seed: 7}).String(),
		// Skipped markup.
		`<?xml version="1.0" encoding="UTF-8"?><!-- c --><a><?pi x?>t<!-- -- -->u</a><!-- after -->`,
		`<?xml version="1.1"?><a/>`,
		`<?xml version='1.0' encoding='latin1'?><a/>`,
		`<?xml-stylesheet href="s.css"?><a/>`,
		`<? a?><a/>`,
		`<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> <!ENTITY e "x>y"> <!-- > --> ]><a>&lt;</a>`,
		`<!DOCTYPE a [ <!ENTITY e "x"> ]><a>&e;</a>`,
		`<a><!DOCTYPE x><!x<>y></a>`,
		`<a><!-x></a>`,
		`<a><!---></a>`,
		`<a><!----></a>`,
		// CDATA between text pieces.
		`<a> x <![CDATA[ <y> & ]]> z </a>`,
		`<a><![CDATA[]]]]><![CDATA[>]]></a>`,
		`<a><![CDAT[x]]></a>`,
		`<a>x]]>y</a>`,
		`<a x="]]>"/>`,
		// References.
		`<a b="&quot;&apos;&amp;">&lt;&gt;&amp;&apos;&quot;</a>`,
		`<a>&#65;&#x42;&#x1F600;&#xD800;&#0065;</a>`,
		`<a>&#0;</a>`,
		`<a>&#x110000;</a>`,
		`<a>&#X41;</a>`,
		`<a>&#;</a>`,
		`<a>&#x;</a>`,
		`<a>&#99999999999999999999999;</a>`,
		`<a>&nbsp;</a>`,
		`<a>&amp</a>`,
		`<a>& b</a>`,
		`<a>&;</a>`,
		// Line ends.
		"<a b=\"1\r\n2\r3\">x\r\ny\rz\r\r\n</a>",
		"<a>&#13;\n&#13;&#10;\r&amp;\n</a>",
		"<a>\r<![CDATA[\r\n]]>\r</a>",
		// Names.
		`<p:a xmlns:p="urn:p" p:b="1" b="2"></p:a>`,
		`<p:a></q:a>`,
		`<p:a></a>`,
		`<:a :b="1"></:a>`,
		`<a: b:="1"></a:>`,
		`<a:b:c/>`,
		`<a b:c:d="1"/>`,
		`<a xmlns="urn:x" xmlns:="y"/>`,
		`<1a/>`,
		`<a.b-c_d/>`,
		`<-a/>`,
		// Non-ASCII, invalid UTF-8 and control characters.
		`<grüße ñ="ü">日本語 · ∑</grüße>`,
		`<a>` + "\xff" + `</a>`,
		`<a b="` + "\xc3" + `"/>`,
		`<a` + "\xff" + `/>`,
		`<é·/>`,
		`<·a/>`,
		`<a>` + "\x01" + `</a>`,
		`<a>` + "\x00" + `</a>`,
		`<a>` + "\uFFFE" + `</a>`,
		`<a><!--` + "\xff\x01" + `--></a>`,
		"\uFEFF<a/>",
		"\uFEFF\uFEFF<a/>",
		// Structure.
		`<a><b></a></b>`,
		`<a><b>`,
		`<a></a></a>`,
		`</a>`,
		``,
		`   `,
		`<a/><b/>`,
		`<a/>  <!-- x -->  `,
		`<a`,
		`<a b`,
		`<a b=`,
		`<a b="1`,
		`< a/>`,
		`<a / >`,
		`<a></a >`,
		`<a></ a>`,
		// Text outside the root element.
		`junk<a>x</a>`,
		`<a>x</a>trailing junk`,
		`&#32;<a/>&#10;`,
		`<![CDATA[ ]]><a/>`,
		`<![CDATA[x]]><a/>`,
		// Attributes.
		`<a b="1" b="2" c='3'/>`,
		`<a b="1"c="2"/>`,
		`<a b=1/>`,
		`<a b/>`,
		`<a b="<"/>`,
		`<a b="'" c='"'/>`,
		`<a b = "1" ></a>`,
		`<a ` + manyAttributes(40) + ` a3="x" p:a17="y" a39="z"/>`,
	}
}

// manyAttributes returns n distinct attributes, a0="0" to a<n-1>.
func manyAttributes(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, ` a%d="%d"`, i, i)
	}
	return b.String()
}

// FuzzParse: the scanner accepts exactly what the reference accepts and
// builds the same tree, none of it a view of the input.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		matchesReference(t, src)
	})
}

// TestParseMatchesReference: the scanner and the reference agree on
// IMDB documents, on documents of random schemas, on every XML literal
// the tests and examples that parse documents hold, and on random
// strings of markup fragments.
func TestParseMatchesReference(t *testing.T) {
	for _, shows := range []int{50, 400} {
		doc := imdb.Generate(imdb.GenOptions{Shows: shows, Seed: int64(shows)})
		if !matchesReference(t, doc.String()) {
			t.Fatalf("a %d-show IMDB document was rejected", shows)
		}
	}
	generated := 0
	for seed := int64(0); seed < 100; seed++ {
		gen := xschema.NewGenerator(xschema.RandomSchema(rand.New(rand.NewSource(seed)), 5), rand.New(rand.NewSource(seed)))
		gen.MaxDepth = 4
		for i := 0; i < 3; i++ {
			if doc, err := gen.Generate(); err == nil {
				if !matchesReference(t, doc.String()) {
					t.Fatalf("seed %d: a generated document was rejected:\n%s", seed, doc)
				}
				generated++
			}
		}
	}
	accepted := 0
	for _, lit := range xmlLiterals(t, "*_test.go", "../shred/*_test.go", "../../*_test.go", "../../examples/*/*.go") {
		if matchesReference(t, lit) {
			accepted++
		}
	}
	soup := 0
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		if matchesReference(t, tokenSoup(r)) {
			soup++
		}
	}
	if generated < 100 || accepted < 50 || soup < 500 {
		t.Fatalf("accepted %d generated documents, %d literals and %d token soups: too few to mean anything", generated, accepted, soup)
	}
}

// soupTokens are the pieces tokenSoup strings together: fragments of
// every construct the scanner reads, whole and cut short.
var soupTokens = []string{
	"<a", "<b", ">", "/>", "</a>", "</b>", "<a>", "</a>", "<!--", "-->", "--", "-",
	"<![CDATA[", "]]>", "]", "[", "&amp;", "&#", "&#x", "&", ";", "41", "D800",
	"\r", "\n", " ", "\t", `"`, "'", "=", " x=", "<!DOCTYPE a [", "<!ENTITY e 'v'>",
	"<!", "<?xml version=\"1.0\"?>", "<?xml version=\"2\"?>", "<?pi ", "?>",
	"x", "text", "é", "\xff", "\x01", "<", "p:", ":", "\uFEFF",
}

// tokenSoup returns up to a dozen soupTokens, often inside <a>…</a>.
func tokenSoup(r *rand.Rand) string {
	var b strings.Builder
	if r.Intn(2) == 0 {
		b.WriteString("<a>")
	}
	for j := r.Intn(12); j >= 0; j-- {
		b.WriteString(soupTokens[r.Intn(len(soupTokens))])
	}
	if r.Intn(2) == 0 {
		b.WriteString("</a>")
	}
	return b.String()
}

// xmlLiterals returns the string literals in the Go files the patterns
// match that start, past white space, with '<'.
func xmlLiterals(t *testing.T, patterns ...string) []string {
	var out []string
	fset := token.NewFileSet()
	for _, pattern := range patterns {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Fatalf("no files match %s: %v", pattern, err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(strings.TrimSpace(s), "<") {
						out = append(out, s)
					}
				}
				return true
			})
		}
	}
	return out
}

// TestParseTextPiecesLinear: an element's text split into many pieces —
// by comments here — is joined in linear time and space, not by
// re-copying the text so far for every piece.
func TestParseTextPiecesLinear(t *testing.T) {
	const pieces = 20000
	doc := "<a>" + strings.Repeat("x<!---->", pieces) + "</a>"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := xmltree.ParseString(doc)
	runtime.ReadMemStats(&after)
	if err != nil || n.Text != strings.Repeat("x", pieces) {
		t.Fatalf("ParseString: %v", err)
	}
	if allocated := after.TotalAlloc - before.TotalAlloc; allocated > 10*uint64(len(doc)) {
		t.Errorf("parsing %d bytes allocated %d", len(doc), allocated)
	}
}

// TestParseManyAttributesLinear: one start tag with 100 000 attributes
// parses in linear time: ~0.1 s on 2 CPUs, where a scan of the list so
// far for each attribute's duplicate takes tens of seconds.
func TestParseManyAttributesLinear(t *testing.T) {
	const attrs = 100000
	start := time.Now()
	n, err := xmltree.ParseString("<a" + manyAttributes(attrs) + ` a5="x"/>`)
	if err != nil || len(n.Attrs) != attrs || n.Attrs[5].Value != "x" {
		t.Fatalf("ParseString: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("parsing %d attributes took %v", attrs, d)
	}
}

func BenchmarkParseIMDB(b *testing.B) {
	for _, shows := range []int{50, 400} {
		text := imdb.Generate(imdb.GenOptions{Shows: shows, Seed: 1}).String()
		b.Run(fmt.Sprintf("shows=%d", shows), func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := xmltree.Parse(strings.NewReader(text)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAllocsParse pins what parsing allocates per element: the node,
// its text and attributes, its share of its parent's child slice and of
// the copied input — nothing per token.
func TestAllocsParse(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	doc := imdb.Generate(imdb.GenOptions{Shows: 50, Seed: 1})
	text := doc.String()
	const budget = 2.05 // measured: 2.02
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := xmltree.Parse(strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	perElement := allocs / float64(doc.Size())
	t.Logf("%v allocations for %d elements: %.3f per element", allocs, doc.Size(), perElement)
	if perElement > budget {
		t.Errorf("Parse allocates %.3f times per element, budget %v", perElement, budget)
	}
}
