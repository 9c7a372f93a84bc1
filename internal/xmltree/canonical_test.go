package xmltree_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"legodb/internal/imdb"
	"legodb/internal/xmltree"
)

// canonicalizeBySerializing is Canonicalize as it was first written —
// both children re-serialized inside the comparator — kept as the
// reference the decorated sort must reproduce.
func canonicalizeBySerializing(n *xmltree.Node) *xmltree.Node {
	cp := &xmltree.Node{Name: n.Name, Text: strings.TrimSpace(n.Text)}
	cp.Attrs = append([]xmltree.Attr(nil), n.Attrs...)
	sort.Slice(cp.Attrs, func(i, j int) bool { return cp.Attrs[i].Name < cp.Attrs[j].Name })
	cp.Children = make([]*xmltree.Node, len(n.Children))
	for i, c := range n.Children {
		cp.Children[i] = canonicalizeBySerializing(c)
	}
	sort.SliceStable(cp.Children, func(i, j int) bool {
		return cp.Children[i].String() < cp.Children[j].String()
	})
	return cp
}

// shuffled returns a deep copy with every element's children permuted.
func shuffled(n *xmltree.Node, rng *rand.Rand) *xmltree.Node {
	cp := n.Clone()
	cp.Walk(func(_ []string, node *xmltree.Node) {
		rng.Shuffle(len(node.Children), func(i, j int) {
			node.Children[i], node.Children[j] = node.Children[j], node.Children[i]
		})
	})
	return cp
}

func TestCanonicalizeMatchesReference(t *testing.T) {
	doc := imdb.Generate(imdb.GenOptions{Shows: 6, Seed: 3})
	mixed := shuffled(doc, rand.New(rand.NewSource(5)))
	for _, n := range []*xmltree.Node{doc, mixed} {
		if got, want := xmltree.Canonicalize(n).String(), canonicalizeBySerializing(n).String(); got != want {
			t.Fatal("Canonicalize diverges from the serialize-in-comparator reference")
		}
	}
	if !xmltree.EqualCanonical(doc, mixed) {
		t.Fatal("a sibling shuffle changed the canonical form")
	}
	mixed.Path("show", "title")[0].Text += "!"
	if xmltree.EqualCanonical(doc, mixed) {
		t.Fatal("EqualCanonical ignored a changed title")
	}
}

func BenchmarkEqualCanonical(b *testing.B) {
	doc := imdb.Generate(imdb.GenOptions{Shows: 50, Seed: 1})
	mixed := shuffled(doc, rand.New(rand.NewSource(2)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !xmltree.EqualCanonical(doc, mixed) {
			b.Fatal("documents differ")
		}
	}
}
