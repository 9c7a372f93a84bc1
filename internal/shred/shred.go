// Package shred loads XML documents into the relational image of a
// physical schema (the document half of the fixed mapping, Section 3.2)
// and reconstructs documents from that image (publishing). Together the
// two directions give the round-trip property the tests rely on:
// publish(shred(doc)) is the original document up to the interleaving
// order of differently-typed siblings, which the relational image does
// not record.
package shred

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"legodb/internal/engine"
	"legodb/internal/faults"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/xmltree"
	"legodb/internal/xschema"
)

// Shredder maps documents of one physical schema into an engine database.
//
// A document is matched whole before anything is written. New compiles
// every named type once into a pattern whose captured values already
// know their column; matching walks each node once, sharing the pieces
// partial matches capture instead of copying them; only when the whole
// document has matched are the captures flattened into rows, ids
// allocated and rows inserted. The accept rule is ValidateDocument's, so
// a document the schema rejects writes nothing and burns no id. Like
// the database it writes, a Shredder serves one caller at a time.
type Shredder struct {
	Schema *xschema.Schema
	Cat    *relational.Catalog
	DB     *engine.Database

	// Restrict, when non-nil, limits materialization to the named
	// tables: rows destined for any other table are matched and id'd but
	// not inserted. Because every instance still burns its table's
	// NextID, ids assigned under any restriction are identical to an
	// unrestricted shred of the same documents in the same order — the
	// property live migration relies on to rebuild a store
	// table-group-by-table-group across separate passes.
	Restrict map[string]bool

	images map[string]*image // every named type, compiled
	root   *pattern          // a reference to the root type
	// cells backs the rows one flatten builds: Insert copies a row into
	// its table's columns, so the next shred carves its rows from the
	// same memory (it keeps the largest shred's worth of cells).
	cells []engine.Value
}

// New builds a shredder over schema, catalog and database (all three must
// derive from the same p-schema).
func New(s *xschema.Schema, cat *relational.Catalog, db *engine.Database) *Shredder {
	sh := &Shredder{Schema: s, Cat: cat, DB: db, images: make(map[string]*image, len(s.Types))}
	for name := range s.Types {
		sh.images[name] = &image{name: name}
	}
	for name, def := range s.Types {
		sh.compileImage(sh.images[name], def)
	}
	sh.root = sh.ref(s.Root)
	return sh
}

// Shred inserts one document. It can be called repeatedly to load
// multiple documents into the same database.
func (sh *Shredder) Shred(doc *xmltree.Node) error {
	if err := faults.Inject(faults.SiteShred); err != nil {
		return err
	}
	top, ok := sh.single(sh.root, doc) // a child instance: the root is a reference
	if !ok {
		if err := sh.Schema.ValidateDocument(doc); err != nil {
			return fmt.Errorf("shred: %w", err)
		}
		return fmt.Errorf("shred: <%s> does not instantiate type %s", doc.Name, sh.Schema.Root)
	}
	sh.cells = sh.cells[:0]
	rows, err := sh.flatten(top.img, top.sub, -1, nil)
	if err != nil {
		return err
	}
	_, err = sh.insert(rows, "", 0)
	return err
}

// image is one named type compiled against its relation.
type image struct {
	name string
	// self describes one instance: an element or wildcard pattern for
	// element- and wildcard-bodied types, the body's pattern otherwise.
	self *pattern
	// The relation an instance becomes a row of (nil for aliases, which
	// have none), with its key and parent foreign-key slots.
	table     *engine.Table
	tableName string
	key       int
	fks       []fkSlot
}

type fkSlot struct {
	slot   int
	parent string // the parent table the foreign key references
}

// column is where a captured value goes: a slot of the owning type's
// row, or -1 when the relation has no column for the value's path.
type column struct {
	slot int
	path string
}

type op uint8

const (
	opNone  op = iota // matches nothing (a reference to an undefined type)
	opEmpty           // matches without consuming
	opText            // the text item: a scalar
	opAttr            // an attribute
	opElem            // an element: a leaf value, or content matched inside it
	opAny             // a wildcard element, whose tag is captured too
	opSeq
	opAlt
	opRep
	opRef   // a named type with a row of its own: captured as a child instance
	opAlias // a named type without one: matched in place
)

// pattern is one node of a compiled type expression.
type pattern struct {
	op      op
	name    string   // opAttr, opElem
	exclude []string // opAny
	// integer requires the text (opText, leaves) or value (opAttr) to
	// parse as an integer.
	integer bool
	// leaf marks an element or wildcard with scalar content: its text is
	// the value, and it may carry no attributes and no children.
	leaf     bool
	col      *column    // the value of opText, opAttr and leaves
	tag      *column    // opAny: the element's name
	kids     []*pattern // opSeq, opAlt items; the content of opElem, opAny and opRep
	min, max int        // opRep
	ref      *image     // opRef, opAlias
}

func (sh *Shredder) compileImage(img *image, def xschema.Type) {
	if pschema.IsAlias(def) {
		img.self = sh.pattern(img, def, nil)
		return
	}
	img.tableName = sh.Cat.TableOf[img.name]
	img.table = sh.DB.Table(img.tableName)
	img.key = -1
	if img.table != nil {
		for i, c := range img.table.Def.Columns {
			switch {
			case c.Key:
				img.key = i
			case c.FKRef != "":
				img.fks = append(img.fks, fkSlot{slot: i, parent: c.FKRef})
			}
		}
	}
	switch b := def.(type) {
	case *xschema.Element:
		img.self = sh.elementPattern(img, &pattern{op: opElem, name: b.Name}, b.Content, nil, "#text")
	case *xschema.Wildcard:
		img.self = sh.elementPattern(img, &pattern{op: opAny, exclude: b.Exclude, tag: img.column("#tag")}, b.Content, nil, "#text")
	default: // scalar and group bodies
		img.self = sh.pattern(img, def, nil)
	}
}

// pattern compiles t, found at prefix (the element path from the body of
// img, wildcards as "~"), resolving each value's column in img's
// relation.
func (sh *Shredder) pattern(img *image, t xschema.Type, prefix []string) *pattern {
	switch t := t.(type) {
	case *xschema.Empty:
		return &pattern{op: opEmpty}
	case *xschema.Scalar:
		return &pattern{op: opText, integer: t.Kind == xschema.IntegerKind, col: img.column(pathKey(prefix, "#text"))}
	case *xschema.Attribute:
		sc, _ := t.Content.(*xschema.Scalar)
		return &pattern{op: opAttr, name: t.Name, integer: sc != nil && sc.Kind == xschema.IntegerKind,
			col: img.column(pathKey(prefix, "@"+t.Name))}
	case *xschema.Element:
		return sh.elementPattern(img, &pattern{op: opElem, name: t.Name}, t.Content, extend(prefix, t.Name), pathKey(prefix, t.Name))
	case *xschema.Wildcard:
		inner := extend(prefix, "~")
		return sh.elementPattern(img, &pattern{op: opAny, exclude: t.Exclude, tag: img.column(pathKey(inner, "#tag"))},
			t.Content, inner, pathKey(inner, "#text"))
	case *xschema.Sequence:
		return sh.patterns(img, opSeq, t.Items, prefix)
	case *xschema.Choice:
		return sh.patterns(img, opAlt, t.Alts, prefix)
	case *xschema.Repeat:
		p := sh.patterns(img, opRep, []xschema.Type{t.Inner}, prefix)
		p.min, p.max = t.Min, t.Max
		return p
	case *xschema.Ref:
		return sh.ref(t.Name)
	default:
		return &pattern{op: opNone}
	}
}

func (sh *Shredder) patterns(img *image, o op, ts []xschema.Type, prefix []string) *pattern {
	p := &pattern{op: o, kids: make([]*pattern, len(ts))}
	for i, t := range ts {
		p.kids[i] = sh.pattern(img, t, prefix)
	}
	return p
}

// elementPattern completes an element or wildcard pattern: scalar
// content makes it a leaf whose text fills leafPath, any other content
// is compiled at inner.
func (sh *Shredder) elementPattern(img *image, p *pattern, content xschema.Type, inner []string, leafPath string) *pattern {
	if sc, ok := content.(*xschema.Scalar); ok {
		p.leaf, p.integer, p.col = true, sc.Kind == xschema.IntegerKind, img.column(leafPath)
		return p
	}
	p.kids = []*pattern{sh.pattern(img, content, inner)}
	return p
}

func (sh *Shredder) ref(name string) *pattern {
	img := sh.images[name]
	switch {
	case img == nil:
		return &pattern{op: opNone}
	case pschema.IsAlias(sh.Schema.Types[name]):
		return &pattern{op: opAlias, ref: img}
	default:
		return &pattern{op: opRef, ref: img}
	}
}

// column resolves the column whose XMLPath is path.
func (img *image) column(path string) *column {
	c := &column{slot: -1, path: path}
	if img.table != nil {
		c.slot = columnFor(img.table.Def, path)
	}
	return c
}

// rope is an immutable sequence of captured pieces: a value bound for a
// column of the owning row (col, value), a child instance of img with
// its own pieces (sub), or — when left is set — the concatenation of
// left and right. A partial match extends the rope of the match it
// continues instead of copying it, so n repetitions cost n nodes.
type rope struct {
	left, right *rope
	col         *column
	value       string
	img         *image
	sub         *rope
}

func cat(a, b *rope) *rope {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return &rope{left: a, right: b}
}

// res is one partial match: the item position reached and the pieces
// captured on the way.
type res struct {
	end int
	r   *rope
}

// resSet collects partial matches with distinct ends, the first parse to
// reach an end winning (ordered alternation). Ends mostly arrive in
// increasing order — a repetition's do — so the usual check is one
// comparison, and matching n siblings stays linear in n.
type resSet struct {
	rs  []res
	max int
}

func (s *resSet) add(r res) {
	if len(s.rs) > 0 && r.end <= s.max {
		for _, x := range s.rs {
			if x.end == r.end {
				return
			}
		}
	} else {
		s.max = r.end
	}
	s.rs = append(s.rs, r)
}

// items is the sequence the matcher walks inside one element — the
// validator's view of its content: the attributes in document order,
// then the text if there is any, then the child elements.
type items struct {
	n     *xmltree.Node
	attrs int
	text  int // position of the text item, -1 without one
	len   int
}

func itemsOf(n *xmltree.Node) items {
	it := items{n: n, attrs: len(n.Attrs), text: -1, len: len(n.Attrs) + len(n.Children)}
	if n.Text != "" {
		it.text = it.attrs
		it.len++
	}
	return it
}

// elem returns the element at position i, nil when i holds another item.
func (it items) elem(i int) *xmltree.Node {
	j := i - it.attrs
	if it.text >= 0 {
		j--
	}
	if j < 0 || j >= len(it.n.Children) {
		return nil
	}
	return it.n.Children[j]
}

// match returns the positions reachable by matching p against the items
// from position i, each with the first parse that reaches it (ordered
// alternation: the first parse wins).
func (sh *Shredder) match(p *pattern, it items, i int) []res {
	switch p.op {
	case opEmpty:
		return []res{{end: i}}
	case opText:
		if i == it.text {
			if p.integer && !parsesInt(it.n.Text) {
				return nil
			}
			return []res{{end: i + 1, r: &rope{col: p.col, value: it.n.Text}}}
		}
		if !p.integer { // an absent text node is an empty string
			return []res{{end: i}}
		}
		return nil
	case opAttr:
		if i < it.attrs && it.n.Attrs[i].Name == p.name {
			v := it.n.Attrs[i].Value
			if p.integer && !parsesInt(v) {
				return nil
			}
			return []res{{end: i + 1, r: &rope{col: p.col, value: v}}}
		}
		return nil
	case opElem, opAny:
		if n := it.elem(i); n != nil {
			if r, ok := sh.element(p, n); ok {
				return []res{{end: i + 1, r: r}}
			}
		}
		return nil
	case opSeq:
		results := []res{{end: i}}
		for _, part := range p.kids {
			var next resSet
			for _, r := range results {
				for _, s := range sh.match(part, it, r.end) {
					next.add(res{end: s.end, r: cat(r.r, s.r)})
				}
			}
			if len(next.rs) == 0 {
				return nil
			}
			results = next.rs
		}
		return results
	case opAlt:
		var out resSet
		for _, alt := range p.kids {
			for _, r := range sh.match(alt, it, i) {
				out.add(r)
			}
		}
		return out.rs
	case opRep:
		current := []res{{end: i}}
		var accepted resSet
		if p.min == 0 {
			accepted.add(res{end: i})
		}
		for count := 1; p.max == xschema.Unbounded || count <= p.max; count++ {
			var next resSet
			for _, r := range current {
				for _, s := range sh.match(p.kids[0], it, r.end) {
					// Progress guard: repetitions that consume nothing
					// are not iterated.
					if s.end > r.end {
						next.add(res{end: s.end, r: cat(r.r, s.r)})
					}
				}
			}
			if len(next.rs) == 0 {
				break
			}
			if count >= p.min {
				for _, r := range next.rs {
					accepted.add(r)
				}
			}
			current = next.rs
		}
		return accepted.rs
	case opRef:
		out := sh.match(p.ref.self, it, i)
		for k := range out {
			out[k].r = &rope{img: p.ref, sub: out[k].r}
		}
		return out
	case opAlias:
		return sh.match(p.ref.self, it, i)
	default:
		return nil
	}
}

// element matches n as one element of an opElem or opAny pattern.
func (sh *Shredder) element(p *pattern, n *xmltree.Node) (*rope, bool) {
	var tag *rope
	if p.op == opElem {
		if n.Name != p.name {
			return nil, false
		}
	} else {
		if slices.Contains(p.exclude, n.Name) {
			return nil, false
		}
		tag = &rope{col: p.tag, value: n.Name}
	}
	if p.leaf {
		if len(n.Attrs) > 0 || len(n.Children) > 0 || p.integer && !parsesInt(n.Text) {
			return nil, false
		}
		return cat(tag, &rope{col: p.col, value: n.Text}), true
	}
	it := itemsOf(n)
	for _, r := range sh.match(p.kids[0], it, 0) {
		if r.end == it.len {
			return cat(tag, r.r), true
		}
	}
	return nil, false
}

// single matches n as exactly one element described by p, as the
// validator places a document's root: element and wildcard patterns,
// references, choices among them and one-item sequences describe one
// element; nothing else does.
func (sh *Shredder) single(p *pattern, n *xmltree.Node) (*rope, bool) {
	switch p.op {
	case opElem, opAny:
		return sh.element(p, n)
	case opRef:
		r, ok := sh.single(p.ref.self, n)
		if !ok {
			return nil, false
		}
		return &rope{img: p.ref, sub: r}, true
	case opAlias:
		return sh.single(p.ref.self, n)
	case opAlt:
		for _, alt := range p.kids {
			if r, ok := sh.single(alt, n); ok {
				return r, true
			}
		}
	case opSeq:
		if len(p.kids) == 1 {
			return sh.single(p.kids[0], n)
		}
	}
	return nil, false
}

// pending is one matched instance as a row: its values in place, its id
// and parent foreign key still to be assigned.
type pending struct {
	img    *image
	row    engine.Row
	parent int // index of the parent instance; -1 for the top one
	id     int64
}

// flatten turns the instance of img captured in r, and every instance
// below it, into rows in insertion order (an instance before its
// children, children in document order), appending them to rows.
func (sh *Shredder) flatten(img *image, r *rope, parent int, rows []pending) ([]pending, error) {
	if img.table == nil {
		return rows, fmt.Errorf("shred: no table for type %q", img.name)
	}
	cols := img.table.Def.Columns
	self := len(rows)
	row := sh.newRow(len(cols))
	rows = append(rows, pending{img: img, row: row, parent: parent})
	var children []*rope
	stack := []*rope{r}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch {
		case x == nil:
		case x.left != nil:
			stack = append(stack, x.right, x.left)
		case x.img != nil:
			children = append(children, x)
		case x.col.slot < 0:
			return rows, fmt.Errorf("shred: type %s has no column for path %q", img.name, x.col.path)
		default:
			v, err := coerce(cols[x.col.slot], x.value)
			if err != nil {
				return rows, fmt.Errorf("shred: %s.%s: %w", img.tableName, cols[x.col.slot].Name, err)
			}
			row[x.col.slot] = v
		}
	}
	var err error
	for _, c := range children {
		if rows, err = sh.flatten(c.img, c.sub, self, rows); err != nil {
			return rows, err
		}
	}
	return rows, nil
}

// newRow carves an all-NULL row of n cells from sh.cells.
func (sh *Shredder) newRow(n int) engine.Row {
	c := sh.cells
	if cap(c)-len(c) < n {
		c = make([]engine.Value, 0, max(2*cap(c), 64*n))
	}
	sh.cells = c[:len(c)+n]
	row := engine.Row(c[len(c) : len(c)+n : len(c)+n])
	clear(row)
	return row
}

// insert allocates ids in order and inserts the rows; the top row's
// parent, if any, is the existing row parentID of parentTable. It
// returns the top row's id.
func (sh *Shredder) insert(rows []pending, parentTable string, parentID int64) (int64, error) {
	for i := range rows {
		p := &rows[i]
		p.id = p.img.table.NextID()
		if p.img.key >= 0 {
			p.row[p.img.key] = engine.IntVal(p.id)
		}
		pt, pid := parentTable, parentID
		if p.parent >= 0 {
			pt, pid = rows[p.parent].img.tableName, rows[p.parent].id
		}
		for _, fk := range p.img.fks {
			if fk.parent == pt {
				p.row[fk.slot] = engine.IntVal(pid)
			}
		}
		if sh.Restrict == nil || sh.Restrict[p.img.tableName] {
			if err := p.img.table.Insert(p.row); err != nil {
				return 0, err
			}
		}
	}
	return rows[0].id, nil
}

func columnFor(def *relational.Table, path string) int {
	for i, c := range def.Columns {
		if strings.Join(c.XMLPath, "/") == path {
			return i
		}
	}
	return -1
}

func coerce(col *relational.Column, raw string) (engine.Value, error) {
	if col.Type == relational.IntCol {
		n, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 64)
		if err != nil {
			return engine.Null, fmt.Errorf("value %q is not an integer", raw)
		}
		return engine.IntVal(n), nil
	}
	return engine.StrVal(raw), nil
}

func pathKey(prefix []string, last string) string {
	if len(prefix) == 0 {
		return last
	}
	return strings.Join(prefix, "/") + "/" + last
}

func extend(prefix []string, comp string) []string {
	out := make([]string, 0, len(prefix)+1)
	out = append(out, prefix...)
	return append(out, comp)
}

func parsesInt(s string) bool {
	_, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	return err == nil
}
