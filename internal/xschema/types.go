// Package xschema implements the XML Query Algebra type system used by
// LegoDB (Fankhauser et al., "The XML Query Algebra"): named types whose
// bodies are regular expressions over elements, attributes, wildcards and
// scalars. The package provides the abstract syntax, a parser for the
// paper's algebra notation, a document validator, and a random document
// generator used by property-based tests.
//
// Statistics ride directly on the type tree (scalar sizes and value
// distributions, average repetition counts), which is exactly the paper's
// notion of a physical schema "extended with statistics about the
// underlying XML data".
package xschema

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Unbounded marks a repetition with no upper bound, as in Aka{1,*}.
const Unbounded = -1

// Type is a node in the type algebra. The concrete types are Scalar,
// Element, Attribute, Wildcard, Sequence, Choice, Repeat, Ref and Empty.
type Type interface {
	isType()
	// String renders the type in the paper's algebra notation.
	String() string
}

// ScalarKind enumerates atomic data types.
type ScalarKind int

// Scalar kinds supported by the algebra subset used in the paper.
const (
	StringKind ScalarKind = iota
	IntegerKind
)

func (k ScalarKind) String() string {
	switch k {
	case StringKind:
		return "String"
	case IntegerKind:
		return "Integer"
	default:
		return fmt.Sprintf("ScalarKind(%d)", int(k))
	}
}

// Scalar is an atomic data type, optionally annotated with statistics:
// Size is the average value width in bytes, Min/Max bound integer values,
// and Distinct counts distinct values (0 means unknown). Hist, when
// present, is an equi-width histogram over [Min, Max]: the fraction of
// values falling in each bucket (an extension beyond the paper's
// uniform-distribution statistics).
type Scalar struct {
	Kind     ScalarKind
	Size     int
	Min, Max int64
	Distinct int64
	Hist     []float64
}

// Element describes a named element with the given content type.
type Element struct {
	Name    string
	Content Type
}

// Attribute describes an attribute; Content must be a scalar.
type Attribute struct {
	Name    string
	Content Type
}

// Wildcard describes an element with an arbitrary name (the paper's ~
// notation) or any name except those in Exclude (~!a).
type Wildcard struct {
	Exclude []string
	Content Type
}

// Sequence is ordered concatenation: t1, t2, ..., tn.
type Sequence struct {
	Items []Type
}

// Choice is a union of alternatives: t1 | t2 | ... | tn. Fractions, when
// known, give the fraction of instances matching each alternative (used
// for statistics propagation); len(Fractions) is 0 or len(Alts).
type Choice struct {
	Alts      []Type
	Fractions []float64
}

// Repeat is a bounded or unbounded repetition t{Min,Max}. Max==Unbounded
// means no upper bound. AvgCount is the average number of occurrences per
// parent instance (0 means unknown); for Repeat{0,1} it doubles as the
// presence probability.
type Repeat struct {
	Inner    Type
	Min, Max int
	AvgCount float64
}

// Ref is a reference to a named type.
type Ref struct {
	Name string
}

// Empty matches the empty sequence.
type Empty struct{}

func (*Scalar) isType()    {}
func (*Element) isType()   {}
func (*Attribute) isType() {}
func (*Wildcard) isType()  {}
func (*Sequence) isType()  {}
func (*Choice) isType()    {}
func (*Repeat) isType()    {}
func (*Ref) isType()       {}
func (*Empty) isType()     {}

func (s *Scalar) String() string {
	var ann string
	switch {
	case s.Kind == IntegerKind && s.Distinct > 0:
		ann = fmt.Sprintf("<#%d,#%d,#%d,#%d>", s.Size, s.Min, s.Max, s.Distinct)
	case s.Kind == StringKind && s.Distinct > 0:
		ann = fmt.Sprintf("<#%d,#%d>", s.Size, s.Distinct)
	case s.Size > 0:
		ann = fmt.Sprintf("<#%d>", s.Size)
	}
	return s.Kind.String() + ann
}

func (e *Element) String() string   { return fmt.Sprintf("%s[ %s ]", e.Name, e.Content) }
func (a *Attribute) String() string { return fmt.Sprintf("@%s[ %s ]", a.Name, a.Content) }

func (w *Wildcard) String() string {
	name := "~"
	if len(w.Exclude) > 0 {
		name = "(~!" + strings.Join(w.Exclude, ",!") + ")"
	}
	return fmt.Sprintf("%s[ %s ]", name, w.Content)
}

func (s *Sequence) String() string {
	parts := make([]string, len(s.Items))
	for i, t := range s.Items {
		parts[i] = t.String()
	}
	return strings.Join(parts, ", ")
}

func (c *Choice) String() string {
	parts := make([]string, len(c.Alts))
	for i, t := range c.Alts {
		s := t.String()
		if _, ok := t.(*Sequence); ok {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return "( " + strings.Join(parts, " | ") + " )"
}

func (r *Repeat) String() string {
	inner := r.Inner.String()
	if _, ok := r.Inner.(*Sequence); ok {
		inner = "(" + inner + ")"
	}
	if _, ok := r.Inner.(*Choice); ok && !strings.HasPrefix(inner, "(") {
		inner = "(" + inner + ")"
	}
	var count string
	if r.AvgCount > 0 {
		// Plain decimal, never scientific notation — the printed schema
		// must re-parse, and the annotation lexer reads only digits.
		count = "<#" + strconv.FormatFloat(r.AvgCount, 'f', -1, 64) + ">"
	}
	switch {
	case r.Min == 0 && r.Max == 1:
		return inner + "?" + count
	case r.Min == 0 && r.Max == Unbounded:
		return inner + "*" + count
	case r.Min == 1 && r.Max == Unbounded:
		return inner + "+" + count
	case r.Max == Unbounded:
		return fmt.Sprintf("%s{%d,*}%s", inner, r.Min, count)
	default:
		return fmt.Sprintf("%s{%d,%d}%s", inner, r.Min, r.Max, count)
	}
}

func (r *Ref) String() string { return r.Name }
func (*Empty) String() string { return "()" }

// Clone returns a deep copy of a type tree.
func Clone(t Type) Type {
	switch t := t.(type) {
	case *Scalar:
		cp := *t
		cp.Hist = append([]float64(nil), t.Hist...)
		return &cp
	case *Element:
		return &Element{Name: t.Name, Content: Clone(t.Content)}
	case *Attribute:
		return &Attribute{Name: t.Name, Content: Clone(t.Content)}
	case *Wildcard:
		return &Wildcard{Exclude: append([]string(nil), t.Exclude...), Content: Clone(t.Content)}
	case *Sequence:
		items := make([]Type, len(t.Items))
		for i, it := range t.Items {
			items[i] = Clone(it)
		}
		return &Sequence{Items: items}
	case *Choice:
		alts := make([]Type, len(t.Alts))
		for i, a := range t.Alts {
			alts[i] = Clone(a)
		}
		return &Choice{Alts: alts, Fractions: append([]float64(nil), t.Fractions...)}
	case *Repeat:
		return &Repeat{Inner: Clone(t.Inner), Min: t.Min, Max: t.Max, AvgCount: t.AvgCount}
	case *Ref:
		return &Ref{Name: t.Name}
	case *Empty:
		return &Empty{}
	default:
		panic(fmt.Sprintf("xschema: unknown type %T", t))
	}
}

// DeepEqual reports whether two type trees are structurally identical,
// ignoring statistics annotations.
func DeepEqual(a, b Type) bool {
	switch a := a.(type) {
	case *Scalar:
		b, ok := b.(*Scalar)
		return ok && a.Kind == b.Kind
	case *Element:
		b, ok := b.(*Element)
		return ok && a.Name == b.Name && DeepEqual(a.Content, b.Content)
	case *Attribute:
		b, ok := b.(*Attribute)
		return ok && a.Name == b.Name && DeepEqual(a.Content, b.Content)
	case *Wildcard:
		b, ok := b.(*Wildcard)
		if !ok || len(a.Exclude) != len(b.Exclude) {
			return false
		}
		ae := append([]string(nil), a.Exclude...)
		be := append([]string(nil), b.Exclude...)
		sort.Strings(ae)
		sort.Strings(be)
		for i := range ae {
			if ae[i] != be[i] {
				return false
			}
		}
		return DeepEqual(a.Content, b.Content)
	case *Sequence:
		b, ok := b.(*Sequence)
		if !ok || len(a.Items) != len(b.Items) {
			return false
		}
		for i := range a.Items {
			if !DeepEqual(a.Items[i], b.Items[i]) {
				return false
			}
		}
		return true
	case *Choice:
		b, ok := b.(*Choice)
		if !ok || len(a.Alts) != len(b.Alts) {
			return false
		}
		for i := range a.Alts {
			if !DeepEqual(a.Alts[i], b.Alts[i]) {
				return false
			}
		}
		return true
	case *Repeat:
		b, ok := b.(*Repeat)
		return ok && a.Min == b.Min && a.Max == b.Max && DeepEqual(a.Inner, b.Inner)
	case *Ref:
		b, ok := b.(*Ref)
		return ok && a.Name == b.Name
	case *Empty:
		_, ok := b.(*Empty)
		return ok
	default:
		return false
	}
}

// Schema is a set of named type definitions with a designated root type.
// Names preserves definition order for deterministic iteration and
// printing.
type Schema struct {
	Root  string
	Names []string
	Types map[string]Type
}

// NewSchema returns an empty schema with the given root type name.
func NewSchema(root string) *Schema {
	return &Schema{Root: root, Types: make(map[string]Type)}
}

// Define adds or replaces a named type definition.
func (s *Schema) Define(name string, t Type) {
	if _, ok := s.Types[name]; !ok {
		s.Names = append(s.Names, name)
	}
	s.Types[name] = t
}

// Lookup returns the definition of a named type.
func (s *Schema) Lookup(name string) (Type, bool) {
	t, ok := s.Types[name]
	return t, ok
}

// Remove deletes a named type definition.
func (s *Schema) Remove(name string) {
	if _, ok := s.Types[name]; !ok {
		return
	}
	delete(s.Types, name)
	for i, n := range s.Names {
		if n == name {
			s.Names = append(s.Names[:i], s.Names[i+1:]...)
			break
		}
	}
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	cp := NewSchema(s.Root)
	for _, name := range s.Names {
		cp.Define(name, Clone(s.Types[name]))
	}
	return cp
}

// ShallowClone returns a copy of the schema that shares its definitions
// with s: Root, Names and the Types map are copied, the type trees are
// not. Defining, removing and replacing definitions in either schema
// leaves the other intact, but a shared definition must not be written
// in place by either — Own it first.
func (s *Schema) ShallowClone() *Schema {
	// The map has room for the definitions a rewrite adds.
	cp := &Schema{Root: s.Root, Names: append([]string(nil), s.Names...), Types: make(map[string]Type, len(s.Types)+2)}
	for name, t := range s.Types {
		cp.Types[name] = t
	}
	return cp
}

// Own replaces the named definition in this schema by a deep copy, which
// no other schema shares and which may therefore be written in place.
// An undefined name is left undefined.
func (s *Schema) Own(name string) {
	if t, ok := s.Types[name]; ok {
		s.Types[name] = Clone(t)
	}
}

// String renders the schema in the algebra notation, one type per
// definition, in definition order.
func (s *Schema) String() string {
	var b strings.Builder
	for _, name := range s.Names {
		fmt.Fprintf(&b, "type %s = %s\n", name, s.Types[name])
	}
	return b.String()
}

// FreshName returns a type name not yet used in the schema, derived from
// base (base, base2, base3, ...).
func (s *Schema) FreshName(base string) string {
	if _, ok := s.Types[base]; !ok {
		return base
	}
	for i := 2; ; i++ {
		name := fmt.Sprintf("%s%d", base, i)
		if _, ok := s.Types[name]; !ok {
			return name
		}
	}
}

// RefCounts returns, for every named type, the number of Ref nodes in the
// schema that point to it (the root type gets an implicit extra
// reference so it is never considered unreferenced).
func (s *Schema) RefCounts() map[string]int {
	counts := make(map[string]int, len(s.Names))
	for _, name := range s.Names {
		counts[name] = 0
	}
	for _, name := range s.Names {
		Visit(s.Types[name], func(t Type) {
			if r, ok := t.(*Ref); ok {
				counts[r.Name]++
			}
		})
	}
	counts[s.Root]++
	return counts
}

// Parents returns, for every named type, the sorted set of named types in
// whose definitions it is referenced. The root type has no parents.
func (s *Schema) Parents() map[string][]string {
	set := make(map[string]map[string]bool)
	for _, name := range s.Names {
		name := name
		Visit(s.Types[name], func(t Type) {
			if r, ok := t.(*Ref); ok {
				if set[r.Name] == nil {
					set[r.Name] = make(map[string]bool)
				}
				set[r.Name][name] = true
			}
		})
	}
	out := make(map[string][]string, len(set))
	for child, parents := range set {
		for p := range parents {
			out[child] = append(out[child], p)
		}
		sort.Strings(out[child])
	}
	return out
}

// Visit walks the type tree in preorder, calling fn on every node. It
// does not follow Ref nodes into their definitions.
func Visit(t Type, fn func(Type)) {
	fn(t)
	switch t := t.(type) {
	case *Element:
		Visit(t.Content, fn)
	case *Attribute:
		Visit(t.Content, fn)
	case *Wildcard:
		Visit(t.Content, fn)
	case *Sequence:
		for _, it := range t.Items {
			Visit(it, fn)
		}
	case *Choice:
		for _, a := range t.Alts {
			Visit(a, fn)
		}
	case *Repeat:
		Visit(t.Inner, fn)
	}
}

// GarbageCollect removes definitions not reachable from the root via
// Ref nodes. Names is left as it is when every definition is reachable.
func (s *Schema) GarbageCollect() {
	reach := make(map[string]struct{}, len(s.Types))
	reach[s.Root] = struct{}{}
	stack := append(make([]string, 0, len(s.Types)), s.Root)
	push := func(t Type) {
		if r, ok := t.(*Ref); ok {
			if _, seen := reach[r.Name]; !seen {
				reach[r.Name] = struct{}{}
				stack = append(stack, r.Name)
			}
		}
	}
	for len(stack) > 0 {
		name := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t, ok := s.Types[name]; ok {
			Visit(t, push)
		}
	}
	live := 0
	for _, n := range s.Names {
		if _, ok := reach[n]; ok {
			live++
		}
	}
	if live == len(s.Names) {
		return
	}
	names := make([]string, 0, live)
	for _, n := range s.Names {
		if _, ok := reach[n]; ok {
			names = append(names, n)
		} else {
			delete(s.Types, n)
		}
	}
	s.Names = names
}

// Validate checks basic well-formedness: the root is defined, every Ref
// resolves, attributes have scalar content, and repetition bounds are
// sane.
func (s *Schema) Validate() error {
	if _, ok := s.Types[s.Root]; !ok {
		return fmt.Errorf("xschema: root type %q is not defined", s.Root)
	}
	for _, name := range s.Names {
		var err error
		Visit(s.Types[name], func(t Type) {
			if err != nil {
				return
			}
			switch t := t.(type) {
			case *Ref:
				if _, ok := s.Types[t.Name]; !ok {
					err = fmt.Errorf("xschema: type %s references undefined type %q", name, t.Name)
				}
			case *Attribute:
				if _, ok := t.Content.(*Scalar); !ok {
					err = fmt.Errorf("xschema: attribute @%s in type %s must have scalar content", t.Name, name)
				}
			case *Repeat:
				if t.Min < 0 || (t.Max != Unbounded && t.Max < t.Min) {
					err = fmt.Errorf("xschema: bad repetition bounds {%d,%d} in type %s", t.Min, t.Max, name)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
