// Package xmltree provides an ordered-tree document model for XML, with a
// one-pass byte scanner that parses into it (see Parse) and a serializer.
// It is the document substrate used by the validator, the statistics
// collector, the shredder and the publisher.
//
// The model is deliberately small: elements carry a name, attributes, and
// an ordered list of children; leaves carry character data. Mixed content
// is represented by interleaving Text nodes between child elements.
package xmltree

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Node is an element node in an XML document tree.
type Node struct {
	Name     string
	Attrs    []Attr
	Children []*Node
	// Text is the concatenated character data directly inside this
	// element (excluding descendants). For a leaf like <year>1993</year>
	// Text is "1993" and Children is empty.
	Text string
}

// Attr is a single attribute on an element.
type Attr struct {
	Name  string
	Value string
}

// NewElement returns an element node with the given name.
func NewElement(name string) *Node { return &Node{Name: name} }

// NewText returns a leaf element with the given name and character data.
func NewText(name, text string) *Node { return &Node{Name: name, Text: text} }

// SetAttr sets (or replaces) an attribute value.
func (n *Node) SetAttr(name, value string) {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Append adds children to the node and returns the node for chaining.
func (n *Node) Append(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// Child returns the first child element with the given name, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ChildrenNamed returns all child elements with the given name, in order.
func (n *Node) ChildrenNamed(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// Path returns the descendants reached by following the given element
// names from n (n itself is the context: Path("a","b") returns all b
// children of all a children of n).
func (n *Node) Path(names ...string) []*Node {
	ctx := []*Node{n}
	for _, name := range names {
		var next []*Node
		for _, c := range ctx {
			next = append(next, c.ChildrenNamed(name)...)
		}
		ctx = next
	}
	return ctx
}

// Clone returns a deep copy of the subtree rooted at n.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	cp := &Node{Name: n.Name, Text: n.Text}
	cp.Attrs = append([]Attr(nil), n.Attrs...)
	cp.Children = make([]*Node, len(n.Children))
	for i, c := range n.Children {
		cp.Children[i] = c.Clone()
	}
	return cp
}

// Equal reports whether two subtrees are structurally identical: same
// names, same attributes (order-insensitive), same text, and the same
// children in the same order.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Name != b.Name || strings.TrimSpace(a.Text) != strings.TrimSpace(b.Text) {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	aa := append([]Attr(nil), a.Attrs...)
	ba := append([]Attr(nil), b.Attrs...)
	sort.Slice(aa, func(i, j int) bool { return aa[i].Name < aa[j].Name })
	sort.Slice(ba, func(i, j int) bool { return ba[i].Name < ba[j].Name })
	for i := range aa {
		if aa[i] != ba[i] {
			return false
		}
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// Canonicalize returns a copy of the subtree in canonical form: trimmed
// text, attributes sorted by name, and children sorted stably by their
// serialized canonical form. Two documents that differ only in the
// interleaving order of repeated children canonicalize identically; used
// by shred/publish round-trip comparisons, where the relational image
// does not record the interleaving of differently-typed siblings.
func Canonicalize(n *Node) *Node {
	cp := &Node{Name: n.Name, Text: strings.TrimSpace(n.Text)}
	cp.Attrs = append([]Attr(nil), n.Attrs...)
	sort.Slice(cp.Attrs, func(i, j int) bool { return cp.Attrs[i].Name < cp.Attrs[j].Name })
	cp.Children = make([]*Node, len(n.Children))
	for i, c := range n.Children {
		cp.Children[i] = Canonicalize(c)
	}
	if len(cp.Children) < 2 {
		return cp
	}
	// Serialize each child once, not once per comparison.
	type keyed struct {
		key  string
		node *Node
	}
	ks := make([]keyed, len(cp.Children))
	for i, c := range cp.Children {
		ks[i] = keyed{c.String(), c}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	for i := range ks {
		cp.Children[i] = ks[i].node
	}
	return cp
}

// EqualCanonical reports whether two subtrees are equal up to sibling
// reordering (see Canonicalize).
func EqualCanonical(a, b *Node) bool {
	return Equal(Canonicalize(a), Canonicalize(b))
}

// Size returns the number of element nodes in the subtree.
func (n *Node) Size() int {
	total := 1
	for _, c := range n.Children {
		total += c.Size()
	}
	return total
}

// Walk calls fn for every element in the subtree in document order. The
// path argument holds the element names from the root down to (and
// including) the visited node.
func (n *Node) Walk(fn func(path []string, node *Node)) {
	var rec func(node *Node, path []string)
	rec = func(node *Node, path []string) {
		path = append(path, node.Name)
		fn(path, node)
		for _, c := range node.Children {
			rec(c, path)
		}
	}
	rec(n, nil)
}

// Encode serializes the subtree as XML with two-space indentation.
func (n *Node) Encode(w io.Writer) error {
	return n.write(w, 0)
}

func (n *Node) write(w io.Writer, depth int) error {
	indent := strings.Repeat("  ", depth)
	var b strings.Builder
	b.WriteString(indent)
	b.WriteByte('<')
	b.WriteString(n.Name)
	for _, a := range n.Attrs {
		fmt.Fprintf(&b, " %s=\"%s\"", a.Name, escapeAttr(a.Value))
	}
	switch {
	case len(n.Children) == 0 && n.Text == "":
		b.WriteString("/>\n")
		_, err := io.WriteString(w, b.String())
		return err
	case len(n.Children) == 0:
		b.WriteByte('>')
		b.WriteString(escapeText(n.Text))
		fmt.Fprintf(&b, "</%s>\n", n.Name)
		_, err := io.WriteString(w, b.String())
		return err
	default:
		b.WriteString(">")
		if n.Text != "" {
			b.WriteString(escapeText(n.Text))
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := c.write(w, depth+1); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "%s</%s>\n", indent, n.Name)
		return err
	}
}

// String renders the subtree as indented XML.
func (n *Node) String() string {
	var b strings.Builder
	if err := n.Encode(&b); err != nil {
		return fmt.Sprintf("<!-- serialize error: %v -->", err)
	}
	return b.String()
}

// Built once: a Replacer compiles its lookup tables on first use and is
// safe for concurrent use.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;")
)

func escapeText(s string) string { return textEscaper.Replace(s) }

func escapeAttr(s string) string { return attrEscaper.Replace(s) }
