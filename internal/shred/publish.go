package shred

import (
	"fmt"

	"legodb/internal/engine"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/xmltree"
	"legodb/internal/xschema"
)

// Publisher reconstructs documents from a shredded database: the inverse
// of the fixed mapping.
type Publisher struct {
	Schema *xschema.Schema
	Cat    *relational.Catalog
	DB     *engine.Database
}

// NewPublisher builds a publisher over schema, catalog and database.
func NewPublisher(s *xschema.Schema, cat *relational.Catalog, db *engine.Database) *Publisher {
	return &Publisher{Schema: s, Cat: cat, DB: db}
}

// PublishAll reconstructs every stored document (one per row of the root
// type's relation), in insertion order.
func (p *Publisher) PublishAll() ([]*xmltree.Node, error) {
	rootTable := p.DB.Table(p.Cat.TableOf[p.Schema.Root])
	if rootTable == nil {
		return nil, fmt.Errorf("publish: no table for root type %q", p.Schema.Root)
	}
	docs := make([]*xmltree.Node, 0, rootTable.NumRows())
	for pos := 0; pos < rootTable.NumRows(); pos++ {
		if !rootTable.Alive(pos) {
			continue
		}
		doc, err := p.publishInstance(p.Schema.Root, pos)
		if err != nil {
			return nil, err
		}
		docs = append(docs, doc)
	}
	return docs, nil
}

// publishInstance reconstructs the element for one row of a named type.
func (p *Publisher) publishInstance(typeName string, pos int) (*xmltree.Node, error) {
	body, ok := p.Schema.Lookup(typeName)
	if !ok {
		return nil, fmt.Errorf("publish: undefined type %q", typeName)
	}
	table := p.DB.Table(p.Cat.TableOf[typeName])
	if table == nil {
		return nil, fmt.Errorf("publish: no table for type %q", typeName)
	}
	id := p.rowID(table, pos)
	switch b := body.(type) {
	case *xschema.Element:
		node := xmltree.NewElement(b.Name)
		if _, isScalar := b.Content.(*xschema.Scalar); isScalar {
			node.Text = p.columnValue(table, pos, "#text")
			return node, nil
		}
		if err := p.emitContent(b.Content, nil, node, table, pos, id); err != nil {
			return nil, err
		}
		return node, nil
	case *xschema.Wildcard:
		tag := p.columnValue(table, pos, "#tag")
		if tag == "" {
			tag = "anonelem"
		}
		node := xmltree.NewElement(tag)
		if _, isScalar := b.Content.(*xschema.Scalar); isScalar {
			node.Text = p.columnValue(table, pos, "#text")
			return node, nil
		}
		if err := p.emitContent(b.Content, nil, node, table, pos, id); err != nil {
			return nil, err
		}
		return node, nil
	default:
		return nil, fmt.Errorf("publish: type %s has no element instance (group or scalar type)", typeName)
	}
}

// emitContent writes the content of a type body for the row at pos of
// table into out, in schema order: columns become attributes and scalar
// children, named-type expressions fetch child rows via the parent's
// foreign key.
func (p *Publisher) emitContent(t xschema.Type, prefix []string, out *xmltree.Node, table *engine.Table, pos int, id int64) error {
	switch t := t.(type) {
	case *xschema.Empty:
		return nil
	case *xschema.Scalar:
		out.Text += p.columnValue(table, pos, pathKey(prefix, "#text"))
		return nil
	case *xschema.Attribute:
		if v := p.columnRaw(table, pos, pathKey(prefix, "@"+t.Name)); !v.IsNull() {
			out.SetAttr(t.Name, v.String())
		}
		return nil
	case *xschema.Element:
		if _, isScalar := t.Content.(*xschema.Scalar); isScalar {
			if v := p.columnRaw(table, pos, pathKey(prefix, t.Name)); !v.IsNull() {
				out.Append(xmltree.NewText(t.Name, v.String()))
			}
			return nil
		}
		child := xmltree.NewElement(t.Name)
		if err := p.emitContent(t.Content, extend(prefix, t.Name), child, table, pos, id); err != nil {
			return err
		}
		if len(child.Children) > 0 || len(child.Attrs) > 0 || child.Text != "" {
			out.Append(child)
		}
		return nil
	case *xschema.Wildcard:
		tagv := p.columnRaw(table, pos, pathKey(extend(prefix, "~"), "#tag"))
		if tagv.IsNull() {
			return nil
		}
		child := xmltree.NewElement(tagv.String())
		if _, isScalar := t.Content.(*xschema.Scalar); isScalar {
			child.Text = p.columnValue(table, pos, pathKey(extend(prefix, "~"), "#text"))
		} else if err := p.emitContent(t.Content, extend(prefix, "~"), child, table, pos, id); err != nil {
			return err
		}
		out.Append(child)
		return nil
	case *xschema.Sequence:
		for _, it := range t.Items {
			if err := p.emitContent(it, prefix, out, table, pos, id); err != nil {
				return err
			}
		}
		return nil
	case *xschema.Repeat:
		if t.Min == 0 && t.Max == 1 && !pschema.IsNamedExpr(t.Inner) {
			return p.emitContent(t.Inner, prefix, out, table, pos, id)
		}
		return p.emitChildren(t.Inner, out, table, id)
	case *xschema.Choice, *xschema.Ref:
		return p.emitChildren(t, out, table, id)
	default:
		return fmt.Errorf("publish: cannot emit %s", t)
	}
}

// emitChildren appends the instances of every concrete type referenced by
// a named expression, fetched via the parent foreign key, in row order.
func (p *Publisher) emitChildren(expr xschema.Type, out *xmltree.Node, parent *engine.Table, id int64) error {
	var types []string
	p.concreteRefs(expr, &types, map[string]bool{})
	for _, typeName := range types {
		childTable := p.DB.Table(p.Cat.TableOf[typeName])
		if childTable == nil {
			return fmt.Errorf("publish: no table for type %q", typeName)
		}
		fk := "parent_" + parent.Def.Name
		positions, ok := childTable.Lookup(fk, engine.IntVal(id))
		if !ok {
			continue // type never stores children of this parent
		}
		def, _ := p.Schema.Lookup(typeName)
		for _, pos := range positions {
			switch def.(type) {
			case *xschema.Element, *xschema.Wildcard:
				node, err := p.publishInstance(typeName, pos)
				if err != nil {
					return err
				}
				out.Append(node)
			case *xschema.Scalar:
				out.Text += p.columnValue(childTable, pos, "#text")
			default:
				// Group type: splice its columns and children into the
				// current element.
				gid := p.rowID(childTable, pos)
				if err := p.emitContent(def, nil, out, childTable, pos, gid); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// concreteRefs collects the non-alias types referenced by a named
// expression, in schema order, looking through aliases.
func (p *Publisher) concreteRefs(t xschema.Type, out *[]string, seen map[string]bool) {
	switch t := t.(type) {
	case *xschema.Ref:
		if seen[t.Name] {
			return
		}
		def, ok := p.Schema.Lookup(t.Name)
		if !ok {
			return
		}
		if pschema.IsAlias(def) {
			seen[t.Name] = true
			p.concreteRefs(def, out, seen)
			return
		}
		for _, existing := range *out {
			if existing == t.Name {
				return
			}
		}
		*out = append(*out, t.Name)
	case *xschema.Repeat:
		p.concreteRefs(t.Inner, out, seen)
	case *xschema.Choice:
		for _, alt := range t.Alts {
			p.concreteRefs(alt, out, seen)
		}
	case *xschema.Sequence:
		for _, it := range t.Items {
			p.concreteRefs(it, out, seen)
		}
	}
}

func (p *Publisher) rowID(t *engine.Table, pos int) int64 {
	if i := t.ColumnIndex(t.Def.Key()); i >= 0 {
		return t.Cell(pos, i).Int
	}
	return 0
}

func (p *Publisher) columnRaw(t *engine.Table, pos int, path string) engine.Value {
	if i := columnFor(t.Def, path); i >= 0 {
		return t.Cell(pos, i)
	}
	return engine.Null
}

func (p *Publisher) columnValue(t *engine.Table, pos int, path string) string {
	v := p.columnRaw(t, pos, path)
	if v.IsNull() {
		return ""
	}
	return v.String()
}
