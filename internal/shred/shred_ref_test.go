package shred

import (
	"fmt"

	"legodb/internal/engine"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/xmltree"
	"legodb/internal/xschema"
)

// refShredder is the shredder as it was before documents were matched in
// one pass: each named-type instance is validated, then matched again
// when its row is inserted, and every partial match copies the pieces
// captured before it. It is kept, test-only, as the reference the
// one-pass shredder's table images are compared against. Its accept rule
// is laxer than ValidateDocument's (an inline scalar element's
// attributes are ignored where no validation runs), so it is a reference
// for documents that validate only.
type refShredder struct {
	Schema   *xschema.Schema
	Cat      *relational.Catalog
	DB       *engine.Database
	Restrict map[string]bool
}

func (sh *refShredder) Shred(doc *xmltree.Node) error {
	_, err := sh.shredInstance(sh.Schema.Root, doc, "", 0)
	return err
}

type refPiece struct {
	path    string
	value   string
	refName string
	node    *xmltree.Node
	text    string
	isText  bool
	sub     []refPiece
	isGroup bool
}

type refItemKind int

const (
	refAttr refItemKind = iota
	refElem
	refText
)

type refItem struct {
	kind  refItemKind
	name  string
	value string
	node  *xmltree.Node
}

func refItemsOf(n *xmltree.Node) []refItem {
	items := make([]refItem, 0, len(n.Attrs)+len(n.Children)+1)
	for _, a := range n.Attrs {
		items = append(items, refItem{kind: refAttr, name: a.Name, value: a.Value})
	}
	if n.Text != "" {
		items = append(items, refItem{kind: refText, value: n.Text})
	}
	for _, c := range n.Children {
		items = append(items, refItem{kind: refElem, name: c.Name, node: c})
	}
	return items
}

type refMres struct {
	end    int
	pieces []refPiece
}

// refMatchesType is the validator's single-element check the reference
// ran before accepting a named-type instance: ValidateDocument with the
// type as the root.
func refMatchesType(s *xschema.Schema, typeName string, node *xmltree.Node) bool {
	sub := *s
	sub.Root = typeName
	return sub.ValidateDocument(node) == nil
}

func (sh *refShredder) shredInstance(typeName string, node *xmltree.Node, parentTable string, parentID int64) (int64, error) {
	body, ok := sh.Schema.Lookup(typeName)
	if !ok {
		return 0, fmt.Errorf("shred: undefined type %q", typeName)
	}
	var pieces []refPiece
	switch b := body.(type) {
	case *xschema.Element:
		if b.Name != node.Name {
			return 0, fmt.Errorf("shred: node <%s> does not instantiate type %s", node.Name, typeName)
		}
		if _, isScalar := b.Content.(*xschema.Scalar); isScalar {
			pieces = []refPiece{{path: "#text", value: node.Text}}
		} else {
			p, ok := sh.matchContent(b.Content, node, nil)
			if !ok {
				return 0, fmt.Errorf("shred: content of <%s> does not match type %s", node.Name, typeName)
			}
			pieces = p
		}
	case *xschema.Wildcard:
		pieces = []refPiece{{path: "#tag", value: node.Name}}
		if _, isScalar := b.Content.(*xschema.Scalar); isScalar {
			pieces = append(pieces, refPiece{path: "#text", value: node.Text})
		} else {
			p, ok := sh.matchContent(b.Content, node, nil)
			if !ok {
				return 0, fmt.Errorf("shred: wildcard content does not match type %s", typeName)
			}
			pieces = append(pieces, p...)
		}
	case *xschema.Scalar:
		pieces = []refPiece{{path: "#text", value: node.Text}}
	default:
		p, ok := sh.matchContent(body, node, nil)
		if !ok {
			return 0, fmt.Errorf("shred: node <%s> does not match group type %s", node.Name, typeName)
		}
		pieces = p
	}
	return sh.insertRow(typeName, pieces, parentTable, parentID)
}

func (sh *refShredder) matchContent(content xschema.Type, node *xmltree.Node, prefix []string) ([]refPiece, bool) {
	items := refItemsOf(node)
	for _, r := range sh.match(content, items, 0, prefix) {
		if r.end == len(items) {
			return r.pieces, true
		}
	}
	return nil, false
}

func (sh *refShredder) match(t xschema.Type, items []refItem, i int, prefix []string) []refMres {
	switch t := t.(type) {
	case *xschema.Empty:
		return []refMres{{end: i}}
	case *xschema.Scalar:
		if i < len(items) && items[i].kind == refText {
			if t.Kind == xschema.IntegerKind && !parsesInt(items[i].value) {
				return nil
			}
			return []refMres{{end: i + 1, pieces: []refPiece{{path: pathKey(prefix, "#text"), value: items[i].value}}}}
		}
		if t.Kind == xschema.StringKind {
			return []refMres{{end: i}}
		}
		return nil
	case *xschema.Attribute:
		if i < len(items) && items[i].kind == refAttr && items[i].name == t.Name {
			if sc, ok := t.Content.(*xschema.Scalar); ok && sc.Kind == xschema.IntegerKind && !parsesInt(items[i].value) {
				return nil
			}
			return []refMres{{end: i + 1, pieces: []refPiece{{path: pathKey(prefix, "@"+t.Name), value: items[i].value}}}}
		}
		return nil
	case *xschema.Element:
		if i >= len(items) || items[i].kind != refElem || items[i].name != t.Name {
			return nil
		}
		node := items[i].node
		if sc, ok := t.Content.(*xschema.Scalar); ok {
			if len(node.Children) > 0 {
				return nil
			}
			if sc.Kind == xschema.IntegerKind && !parsesInt(node.Text) {
				return nil
			}
			return []refMres{{end: i + 1, pieces: []refPiece{{path: pathKey(prefix, t.Name), value: node.Text}}}}
		}
		sub, ok := sh.matchContent(t.Content, node, extend(prefix, t.Name))
		if !ok {
			return nil
		}
		return []refMres{{end: i + 1, pieces: sub}}
	case *xschema.Wildcard:
		if i >= len(items) || items[i].kind != refElem {
			return nil
		}
		node := items[i].node
		for _, ex := range t.Exclude {
			if node.Name == ex {
				return nil
			}
		}
		tagPiece := refPiece{path: pathKey(extend(prefix, "~"), "#tag"), value: node.Name}
		if _, ok := t.Content.(*xschema.Scalar); ok {
			if len(node.Children) > 0 {
				return nil
			}
			return []refMres{{end: i + 1, pieces: []refPiece{
				tagPiece,
				{path: pathKey(extend(prefix, "~"), "#text"), value: node.Text},
			}}}
		}
		sub, ok := sh.matchContent(t.Content, node, extend(prefix, "~"))
		if !ok {
			return nil
		}
		return []refMres{{end: i + 1, pieces: append([]refPiece{tagPiece}, sub...)}}
	case *xschema.Sequence:
		results := []refMres{{end: i}}
		for _, part := range t.Items {
			var next []refMres
			for _, r := range results {
				for _, s := range sh.match(part, items, r.end, prefix) {
					merged := refMres{end: s.end, pieces: append(append([]refPiece(nil), r.pieces...), s.pieces...)}
					next = refAddResult(next, merged)
				}
			}
			if len(next) == 0 {
				return nil
			}
			results = next
		}
		return results
	case *xschema.Choice:
		var out []refMres
		for _, alt := range t.Alts {
			for _, r := range sh.match(alt, items, i, prefix) {
				out = refAddResult(out, r)
			}
		}
		return out
	case *xschema.Repeat:
		current := []refMres{{end: i}}
		var accepted []refMres
		if t.Min == 0 {
			accepted = append(accepted, refMres{end: i})
		}
		for count := 1; t.Max == xschema.Unbounded || count <= t.Max; count++ {
			var next []refMres
			for _, r := range current {
				for _, s := range sh.match(t.Inner, items, r.end, prefix) {
					if s.end <= r.end {
						continue
					}
					merged := refMres{end: s.end, pieces: append(append([]refPiece(nil), r.pieces...), s.pieces...)}
					next = refAddResult(next, merged)
				}
			}
			if len(next) == 0 {
				break
			}
			if count >= t.Min {
				for _, r := range next {
					accepted = refAddResult(accepted, r)
				}
			}
			current = next
		}
		return accepted
	case *xschema.Ref:
		def, ok := sh.Schema.Lookup(t.Name)
		if !ok {
			return nil
		}
		if pschema.IsAlias(def) {
			return sh.match(def, items, i, prefix)
		}
		switch body := def.(type) {
		case *xschema.Element, *xschema.Wildcard:
			if i >= len(items) || items[i].kind != refElem {
				return nil
			}
			if !refMatchesType(sh.Schema, t.Name, items[i].node) {
				return nil
			}
			return []refMres{{end: i + 1, pieces: []refPiece{{refName: t.Name, node: items[i].node}}}}
		case *xschema.Scalar:
			if i < len(items) && items[i].kind == refText {
				if body.Kind == xschema.IntegerKind && !parsesInt(items[i].value) {
					return nil
				}
				return []refMres{{end: i + 1, pieces: []refPiece{{refName: t.Name, text: items[i].value, isText: true}}}}
			}
			return nil
		default:
			var out []refMres
			for _, r := range sh.match(def, items, i, nil) {
				out = refAddResult(out, refMres{end: r.end, pieces: []refPiece{{refName: t.Name, sub: r.pieces, isGroup: true}}})
			}
			return out
		}
	default:
		return nil
	}
}

func refAddResult(results []refMres, r refMres) []refMres {
	for _, existing := range results {
		if existing.end == r.end {
			return results
		}
	}
	return append(results, r)
}

func (sh *refShredder) insertRow(typeName string, pieces []refPiece, parentTable string, parentID int64) (int64, error) {
	tableName := sh.Cat.TableOf[typeName]
	table := sh.DB.Table(tableName)
	if table == nil {
		return 0, fmt.Errorf("shred: no table for type %q", typeName)
	}
	id := table.NextID()
	row := make(engine.Row, len(table.Def.Columns))
	for ci, col := range table.Def.Columns {
		switch {
		case col.Key:
			row[ci] = engine.IntVal(id)
		case col.FKRef != "":
			if col.FKRef == parentTable {
				row[ci] = engine.IntVal(parentID)
			} else {
				row[ci] = engine.Null
			}
		default:
			row[ci] = engine.Null
		}
	}
	var children []refPiece
	for _, p := range pieces {
		if p.path == "" {
			children = append(children, p)
			continue
		}
		ci := columnFor(table.Def, p.path)
		if ci < 0 {
			return 0, fmt.Errorf("shred: type %s has no column for path %q", typeName, p.path)
		}
		v, err := coerce(table.Def.Columns[ci], p.value)
		if err != nil {
			return 0, fmt.Errorf("shred: %s.%s: %w", tableName, table.Def.Columns[ci].Name, err)
		}
		row[ci] = v
	}
	if sh.Restrict == nil || sh.Restrict[tableName] {
		if err := table.Insert(row); err != nil {
			return 0, err
		}
	}
	for _, c := range children {
		switch {
		case c.isGroup:
			if _, err := sh.insertRow(c.refName, c.sub, tableName, id); err != nil {
				return 0, err
			}
		case c.isText:
			if _, err := sh.insertRow(c.refName, []refPiece{{path: "#text", value: c.text}}, tableName, id); err != nil {
				return 0, err
			}
		default:
			if _, err := sh.shredInstance(c.refName, c.node, tableName, id); err != nil {
				return 0, err
			}
		}
	}
	return id, nil
}
