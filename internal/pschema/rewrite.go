package pschema

import (
	"fmt"

	"legodb/internal/xschema"
)

// Path addresses a node inside a type body as a sequence of child
// indexes. Element, Attribute, Wildcard and Repeat nodes have one child
// (index 0); Sequence and Choice nodes have one child per item.
type Path []int

// Loc identifies a node inside a schema: the named type and a path into
// its body.
type Loc struct {
	Type string
	Path Path
}

func (l Loc) String() string { return fmt.Sprintf("%s%v", l.Type, []int(l.Path)) }

// ChildCount returns the number of addressable children of a type node.
func ChildCount(t xschema.Type) int {
	switch t := t.(type) {
	case *xschema.Element, *xschema.Attribute, *xschema.Wildcard, *xschema.Repeat:
		return 1
	case *xschema.Sequence:
		return len(t.Items)
	case *xschema.Choice:
		return len(t.Alts)
	default:
		return 0
	}
}

// Child returns the i-th child of a type node.
func Child(t xschema.Type, i int) (xschema.Type, error) {
	switch t := t.(type) {
	case *xschema.Element:
		if i == 0 {
			return t.Content, nil
		}
	case *xschema.Attribute:
		if i == 0 {
			return t.Content, nil
		}
	case *xschema.Wildcard:
		if i == 0 {
			return t.Content, nil
		}
	case *xschema.Repeat:
		if i == 0 {
			return t.Inner, nil
		}
	case *xschema.Sequence:
		if i >= 0 && i < len(t.Items) {
			return t.Items[i], nil
		}
	case *xschema.Choice:
		if i >= 0 && i < len(t.Alts) {
			return t.Alts[i], nil
		}
	}
	return nil, fmt.Errorf("pschema: node %s has no child %d", t, i)
}

// SetChild replaces the i-th child of a type node.
func SetChild(t xschema.Type, i int, c xschema.Type) error {
	switch t := t.(type) {
	case *xschema.Element:
		if i == 0 {
			t.Content = c
			return nil
		}
	case *xschema.Attribute:
		if i == 0 {
			t.Content = c
			return nil
		}
	case *xschema.Wildcard:
		if i == 0 {
			t.Content = c
			return nil
		}
	case *xschema.Repeat:
		if i == 0 {
			t.Inner = c
			return nil
		}
	case *xschema.Sequence:
		if i >= 0 && i < len(t.Items) {
			t.Items[i] = c
			return nil
		}
	case *xschema.Choice:
		if i >= 0 && i < len(t.Alts) {
			t.Alts[i] = c
			return nil
		}
	}
	return fmt.Errorf("pschema: node %s has no child %d", t, i)
}

// Resolve returns the node at loc in the schema.
func Resolve(s *xschema.Schema, loc Loc) (xschema.Type, error) {
	t, ok := s.Lookup(loc.Type)
	if !ok {
		return nil, fmt.Errorf("pschema: type %q not defined", loc.Type)
	}
	for _, i := range loc.Path {
		var err error
		t, err = Child(t, i)
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ReplaceAt substitutes the node at loc with repl.
func ReplaceAt(s *xschema.Schema, loc Loc, repl xschema.Type) error {
	if len(loc.Path) == 0 {
		if _, ok := s.Lookup(loc.Type); !ok {
			return fmt.Errorf("pschema: type %q not defined", loc.Type)
		}
		s.Types[loc.Type] = repl
		return nil
	}
	parent, err := Resolve(s, Loc{Type: loc.Type, Path: loc.Path[:len(loc.Path)-1]})
	if err != nil {
		return err
	}
	return SetChild(parent, loc.Path[len(loc.Path)-1], repl)
}

// WalkBody traverses a type body in preorder, calling fn with each node's
// path. Returning false from fn prunes the subtree.
func WalkBody(body xschema.Type, fn func(path Path, t xschema.Type) bool) {
	var rec func(t xschema.Type, path Path)
	rec = func(t xschema.Type, path Path) {
		if !fn(append(Path(nil), path...), t) {
			return
		}
		for i := 0; i < ChildCount(t); i++ {
			c, err := Child(t, i)
			if err == nil {
				rec(c, append(path, i))
			}
		}
	}
	rec(body, nil)
}

// Outline gives the element or wildcard node at loc its own named type
// and replaces the node with a reference, as in Section 4.1:
//
//	type TV = seasons[Integer], Description, Episode*
//	type Description = description[String]
//
// The new type's name is returned. Outlining is always
// semantics-preserving; the node must not be the entire body (that would
// create a useless alias).
func Outline(s *xschema.Schema, loc Loc) (string, error) {
	if len(loc.Path) == 0 {
		return "", fmt.Errorf("pschema: cannot outline the whole body of %s", loc.Type)
	}
	node, err := Resolve(s, loc)
	if err != nil {
		return "", err
	}
	switch node.(type) {
	case *xschema.Element, *xschema.Wildcard:
	default:
		return "", fmt.Errorf("pschema: only elements and wildcards can be outlined, got %s", node)
	}
	name := TypeNameFor(s, node)
	if err := ReplaceAt(s, loc, &xschema.Ref{Name: name}); err != nil {
		return "", err
	}
	s.Define(name, node)
	return name, nil
}

// InlineMode describes how Inline handled the target type.
type InlineMode int

const (
	// InlineMoved means the target had a single reference: its body moved
	// into the host and the definition was removed.
	InlineMoved InlineMode = iota
	// InlineCopied means the target is shared: the host received a copy
	// and the definition remains for the other references.
	InlineCopied
)

// CanInline reports whether the reference at loc may be inlined: the
// node must be a Ref in an inlinable position (not inside a repetition
// other than {0,1}, not inside a union), the target must not be the
// schema root, must not be recursive, and its body must be physical
// content (not a bare scalar).
func CanInline(s *xschema.Schema, loc Loc) error {
	node, err := Resolve(s, loc)
	if err != nil {
		return err
	}
	ref, ok := node.(*xschema.Ref)
	if !ok {
		return fmt.Errorf("pschema: node at %s is not a type reference", loc)
	}
	if ref.Name == s.Root {
		return fmt.Errorf("pschema: cannot inline the root type %s", ref.Name)
	}
	if ref.Name == loc.Type {
		return fmt.Errorf("pschema: cannot inline %s into itself", ref.Name)
	}
	// Position check: walk the path and reject collection/union contexts.
	t, _ := s.Lookup(loc.Type)
	for _, i := range loc.Path {
		switch n := t.(type) {
		case *xschema.Repeat:
			if !(n.Min == 0 && n.Max == 1) {
				return fmt.Errorf("pschema: reference inside repetition %s cannot be inlined", n)
			}
		case *xschema.Choice:
			return fmt.Errorf("pschema: reference inside a union cannot be inlined")
		}
		t, err = Child(t, i)
		if err != nil {
			return err
		}
	}
	def, ok := s.Lookup(ref.Name)
	if !ok {
		return fmt.Errorf("pschema: type %q not defined", ref.Name)
	}
	if _, isScalar := def.(*xschema.Scalar); isScalar {
		return fmt.Errorf("pschema: scalar type %s cannot be inlined", ref.Name)
	}
	if Recursive(s, ref.Name) {
		return fmt.Errorf("pschema: recursive type %s cannot be inlined", ref.Name)
	}
	return nil
}

// Inline replaces the type reference at loc with the referenced type's
// body. If the target type is referenced only once it is removed (the
// usual case); shared targets are kept, which preserves semantics but
// duplicates structure (used by the repetition-split rewriting). Either
// way the host receives a copy of the body, so Inline writes no
// definition in place but loc.Type's — the target's may be shared with
// another schema (see xschema.Schema.ShallowClone).
func Inline(s *xschema.Schema, loc Loc) (InlineMode, error) {
	if err := CanInline(s, loc); err != nil {
		return 0, err
	}
	node, _ := Resolve(s, loc)
	ref := node.(*xschema.Ref)
	def, _ := s.Lookup(ref.Name)
	mode := InlineMoved
	if s.RefCounts()[ref.Name] > 1 {
		mode = InlineCopied
	}
	if err := ReplaceAt(s, loc, xschema.Clone(def)); err != nil {
		return 0, err
	}
	if mode == InlineMoved {
		s.Remove(ref.Name)
	}
	s.Types[loc.Type] = xschema.Normalize(s.Types[loc.Type])
	return mode, nil
}

// InlineCandidates returns every location holding an inlinable type
// reference.
func InlineCandidates(s *xschema.Schema) []Loc {
	var out []Loc
	for _, name := range s.Names {
		name := name
		WalkBody(s.Types[name], func(path Path, t xschema.Type) bool {
			if _, ok := t.(*xschema.Ref); ok {
				loc := Loc{Type: name, Path: path}
				if CanInline(s, loc) == nil {
					out = append(out, loc)
				}
			}
			return true
		})
	}
	return out
}

// OutlineCandidates returns every location holding an element or wildcard
// that can be outlined (every such node except type-body roots).
func OutlineCandidates(s *xschema.Schema) []Loc {
	var out []Loc
	for _, name := range s.Names {
		name := name
		WalkBody(s.Types[name], func(path Path, t xschema.Type) bool {
			if len(path) == 0 {
				return true
			}
			switch t.(type) {
			case *xschema.Element, *xschema.Wildcard:
				out = append(out, Loc{Type: name, Path: path})
			}
			return true
		})
	}
	return out
}
