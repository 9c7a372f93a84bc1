package xquery

import (
	"fmt"
	"strconv"

	"legodb/internal/faults"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/sqlast"
	"legodb/internal/xschema"
)

// Translate converts a FLWR query into logical SQL over the relational
// image of the given physical schema:
//
//   - a path step into an outlined type adds a key/foreign-key join;
//   - a step into content inlined in the current table stays in place;
//   - a step over a union of types expands the query into one block per
//     alternative (the paper's "union of two subqueries");
//   - a step naming a concrete element into a wildcard adds an equality
//     filter on the wildcard's tag column;
//   - returning a whole element expands into one block per relation
//     reachable from it (publishing, in the style of SilkRoute).
func Translate(q *Query, s *xschema.Schema, cat *relational.Catalog) (*sqlast.Query, error) {
	sq, _, err := translateTracked(q, s, cat, false)
	return sq, err
}

// TranslateDeps is Translate, additionally reporting every named type
// the translation examined (looked up in the schema), in first-lookup
// order. The translation is a deterministic function of the root name,
// the examined definitions and those types' catalog tables: if all of
// them are unchanged between two schemas, re-translating yields an
// identical query with an identical cost. The search's slot reuse in
// core records exactly this dependency list.
func TranslateDeps(q *Query, s *xschema.Schema, cat *relational.Catalog) (*sqlast.Query, []string, error) {
	return translateTracked(q, s, cat, true)
}

func translateTracked(q *Query, s *xschema.Schema, cat *relational.Catalog, track bool) (*sqlast.Query, []string, error) {
	if err := faults.Inject(faults.SiteTranslate); err != nil {
		return nil, nil, err
	}
	tr := &translator{schema: s, cat: cat, track: track}
	ctxs, err := tr.applyBindings([]*context{{}}, q.Bindings)
	if err != nil {
		return nil, nil, fmt.Errorf("xquery: %s: %w", q.Name, err)
	}
	ctxs, err = tr.applyWhere(ctxs, q.Where)
	if err != nil {
		return nil, nil, fmt.Errorf("xquery: %s: %w", q.Name, err)
	}
	blocks, err := tr.processReturn(ctxs, q.Return)
	if err != nil {
		return nil, nil, fmt.Errorf("xquery: %s: %w", q.Name, err)
	}
	if len(blocks) == 0 {
		return nil, nil, fmt.Errorf("xquery: %s: no part of the query is answerable on this schema", q.Name)
	}
	return &sqlast.Query{Name: q.Name, Blocks: blocks}, tr.deps, nil
}

// target is a bound node set: rows of one relation, plus the element path
// of the node inside the relation's type (empty = the type's own
// instance element).
type target struct {
	typeName string
	alias    string
	prefix   []string
}

// context is one alternative expansion of the query: a partially built
// block plus variable bindings and accumulated scalar projections.
//
// Contexts branch at every step that matches more than once, so a branch
// must be cheap: all of a context's slices are append-only, and a fork
// shares their storage, copying only the slice headers (see fork). The
// blocks a translation returns are deep copies (Block.Clone), made once
// each, so they share nothing with one another or with the contexts.
type context struct {
	block    sqlast.Block
	vars     []binding
	projects []sqlast.ColumnRef
}

// binding is one bound variable. A context's bindings are searched from
// the end, so a rebound name shadows the earlier binding.
type binding struct {
	name string
	tgt  target
}

// capped returns s with its capacity cut to its length: the next append
// through the returned header, or through the header it was cut from,
// reallocates instead of writing into storage the other still reads.
func capped[T any](s []T) []T { return s[:len(s):len(s)] }

// forkBlock caps b's slices and returns a copy of b that shares their
// storage: appends on either side reallocate, so neither sees the
// other's additions.
func forkBlock(b *sqlast.Block) sqlast.Block {
	b.Tables = capped(b.Tables)
	b.Joins = capped(b.Joins)
	b.Filters = capped(b.Filters)
	b.Projects = capped(b.Projects)
	return *b
}

// fork returns a branch of c that shares its storage; from here on the
// two grow independently.
func (c *context) fork() *context {
	c.vars = capped(c.vars)
	c.projects = capped(c.projects)
	return &context{block: forkBlock(&c.block), vars: c.vars, projects: c.projects}
}

// lookupVar returns the latest binding of the variable.
func (c *context) lookupVar(name string) (target, bool) {
	for i := len(c.vars) - 1; i >= 0; i-- {
		if c.vars[i].name == name {
			return c.vars[i].tgt, true
		}
	}
	return target{}, false
}

type translator struct {
	schema *xschema.Schema
	cat    *relational.Catalog
	// deps records the named types examined during translation (every
	// schema lookup), in first-lookup order. The list is the
	// translation's complete read set of the schema: all catalog
	// accesses use type names that went through lookup first. depSeen
	// mirrors deps as a set so each lookup dedups in O(1) — lookups are
	// far more frequent than distinct names, and the incremental
	// evaluator calls TranslateDeps on every cache miss, so per-lookup
	// cost is on the search hot path.
	deps    []string
	depSeen map[string]struct{}
	track   bool
	// expanding is the chain of named types the current schema walk
	// (scanUnits/namedMatches, collectDescendants) is inside of; a walk
	// expands a recursive type once. Walks do not nest, so one stack
	// serves them all.
	expanding []string
	// matches is the scratch buffer resolvePath collects a step's
	// matches in.
	matches []match
}

// enter pushes a named type onto the expansion stack, reporting false
// (and pushing nothing) when the walk is already inside it.
func (tr *translator) enter(name string) bool {
	for _, n := range tr.expanding {
		if n == name {
			return false
		}
	}
	tr.expanding = append(tr.expanding, name)
	return true
}

// leave pops the type enter pushed.
func (tr *translator) leave() { tr.expanding = tr.expanding[:len(tr.expanding)-1] }

// nextAlias returns the alias for the next FROM entry of a block. The
// assignment is purely positional — t1, t2, ... by position in the
// block's own FROM list, with no counter shared across blocks or union
// branches — so Tables[i].Alias == "t<i+1>" always holds, structurally
// identical blocks carry byte-identical aliases wherever they arise, and
// translated blocks are deterministic inputs for plan fingerprinting.
func nextAlias(b *sqlast.Block) string {
	if n := len(b.Tables); n < len(aliases) {
		return aliases[n]
	}
	return "t" + strconv.Itoa(len(b.Tables)+1)
}

// aliases are the first FROM aliases, built once: blocks rarely have
// more, and nextAlias runs for every table of every branch.
var aliases = func() []string {
	out := make([]string, 16)
	for i := range out {
		out[i] = "t" + strconv.Itoa(i+1)
	}
	return out
}()

// lookup resolves a named type, recording it as a dependency.
func (tr *translator) lookup(name string) (xschema.Type, bool) {
	if tr.track {
		if _, seen := tr.depSeen[name]; !seen {
			if tr.depSeen == nil {
				tr.depSeen = make(map[string]struct{}, 8)
			}
			tr.depSeen[name] = struct{}{}
			tr.deps = append(tr.deps, name)
		}
	}
	return tr.schema.Lookup(name)
}

// resolution is one alternative outcome of resolving a path.
type resolution struct {
	ctx *context
	tgt target
}

// match describes how a step name binds inside some content: either
// inlined (chain empty, prefix extends within the current table) or
// through a chain of outlined types.
type match struct {
	chain     []string
	prefix    []string
	tagFilter bool
}

func (tr *translator) applyBindings(ctxs []*context, bindings []Binding) ([]*context, error) {
	for _, b := range bindings {
		var next []*context
		for _, ctx := range ctxs {
			resolutions, err := tr.resolvePath(ctx, b.Path)
			if err != nil {
				return nil, err
			}
			for _, r := range resolutions {
				r.ctx.vars = append(r.ctx.vars, binding{name: b.Var, tgt: r.tgt})
				next = append(next, r.ctx)
			}
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("binding $%s: path %s matches nothing in the schema", b.Var, b.Path)
		}
		ctxs = next
	}
	return ctxs, nil
}

// resolvePath binds a path expression, returning one resolution per
// schema alternative. Each resolution's context is a branch of ctx with
// the necessary tables, joins and tag filters added; ctx itself is left
// as it was.
func (tr *translator) resolvePath(ctx *context, p Path) ([]resolution, error) {
	var current []resolution
	steps := p.Steps
	if p.Var == "" {
		if len(steps) == 0 {
			return nil, fmt.Errorf("empty document path")
		}
		// The first step must match the root element.
		tr.matches = tr.matches[:0]
		tr.namedMatches(&xschema.Ref{Name: tr.schema.Root}, steps[0], &tr.matches)
		if len(tr.matches) == 0 {
			return nil, fmt.Errorf("step %q does not match the document root", steps[0])
		}
		current = tr.applyMatches(ctx.fork(), target{}, steps[0], current)
		steps = steps[1:]
	} else {
		tgt, ok := ctx.lookupVar(p.Var)
		if !ok {
			return nil, fmt.Errorf("unbound variable $%s", p.Var)
		}
		current = []resolution{{ctx: ctx.fork(), tgt: tgt}}
	}
	for _, step := range steps {
		var next []resolution
		for _, r := range current {
			content, err := tr.contentAt(r.tgt.typeName, r.tgt.prefix)
			if err != nil {
				return nil, err
			}
			tr.matches = tr.matches[:0]
			tr.scanUnits(content, step, &tr.matches)
			next = tr.applyMatches(r.ctx, r.tgt, step, next)
		}
		current = next
		if len(current) == 0 {
			return nil, nil // path names nothing on this alternative
		}
	}
	return current, nil
}

// applyMatches applies each of the step's matches (tr.matches) from the
// target to a branch of own, appending a resolution to out for each that
// applies. Every match but the last gets a fork; the last takes own
// itself, which the caller gives up.
func (tr *translator) applyMatches(own *context, from target, step string, out []resolution) []resolution {
	for i, m := range tr.matches {
		c := own
		if i < len(tr.matches)-1 {
			c = own.fork()
		}
		if tgt, ok := tr.applyMatch(c, from, m, step); ok {
			out = append(out, resolution{ctx: c, tgt: tgt})
		}
	}
	return out
}

// applyMatch materializes a match in the context: joins through the
// outlined chain, tag filters for wildcard steps. The boolean result is
// false when a required column or table is missing (malformed catalog).
func (tr *translator) applyMatch(ctx *context, from target, m match, step string) (target, bool) {
	tgt := from
	for _, hop := range m.chain {
		childTable := tr.cat.TableOf[hop]
		child := tr.cat.Table(childTable)
		if child == nil {
			return target{}, false
		}
		alias := nextAlias(&ctx.block)
		ctx.block.AddTable(childTable, alias)
		if tgt.typeName != "" {
			parentTable := tr.cat.TableOf[tgt.typeName]
			fk := ""
			for _, e := range child.Parents {
				if e.Parent == parentTable {
					fk = e.FKColumn
					break
				}
			}
			if fk == "" {
				return target{}, false
			}
			ctx.block.Joins = append(ctx.block.Joins, sqlast.Join{
				Left:  sqlast.ColumnRef{Alias: alias, Column: fk},
				Right: sqlast.ColumnRef{Alias: tgt.alias, Column: tr.cat.Table(parentTable).Key()},
			})
		}
		tgt = target{typeName: hop, alias: alias}
	}
	// Prefixes are never written in place: a target shares its prefix
	// with the match or target it came from whenever one side is empty.
	switch {
	case len(m.prefix) == 0:
	case len(tgt.prefix) == 0:
		tgt.prefix = capped(m.prefix)
	default:
		tgt.prefix = append(append(make([]string, 0, len(tgt.prefix)+len(m.prefix)), tgt.prefix...), m.prefix...)
	}
	if m.tagFilter {
		tagCol := tr.columnAt(tgt, "#tag")
		if tagCol == nil {
			return target{}, false
		}
		ctx.block.Filters = append(ctx.block.Filters, sqlast.Filter{
			Col:   sqlast.ColumnRef{Alias: tgt.alias, Column: tagCol.Name},
			Op:    sqlast.OpEq,
			Value: sqlast.Literal{Str: step},
		})
	}
	return tgt, true
}

// contentAt returns the content type reached by following prefix inside
// the named type's body.
func (tr *translator) contentAt(typeName string, prefix []string) (xschema.Type, error) {
	body, ok := tr.lookup(typeName)
	if !ok {
		return nil, fmt.Errorf("undefined type %q", typeName)
	}
	t := body
	switch b := t.(type) {
	case *xschema.Element:
		t = b.Content
	case *xschema.Wildcard:
		t = b.Content
	}
	for _, comp := range prefix {
		child := findChild(t, comp)
		if child == nil {
			return nil, fmt.Errorf("no %q inside type %s", comp, typeName)
		}
		t = child
	}
	return t, nil
}

// findChild locates the content of the element (or wildcard, comp "~")
// named comp among the top-level units of t.
func findChild(t xschema.Type, comp string) xschema.Type {
	switch t := t.(type) {
	case *xschema.Sequence:
		for _, it := range t.Items {
			if c := findChild(it, comp); c != nil {
				return c
			}
		}
	case *xschema.Repeat:
		if t.Min == 0 && t.Max == 1 {
			return findChild(t.Inner, comp)
		}
	case *xschema.Element:
		if t.Name == comp {
			return t.Content
		}
	case *xschema.Wildcard:
		if comp == "~" {
			return t.Content
		}
	}
	return nil
}

// scanUnits finds step matches among the immediate children described by
// content: inlined elements, attributes, wildcards, and outlined types
// through named expressions.
func (tr *translator) scanUnits(content xschema.Type, step string, out *[]match) {
	switch t := content.(type) {
	case *xschema.Sequence:
		for _, it := range t.Items {
			tr.scanUnits(it, step, out)
		}
	case *xschema.Repeat:
		if t.Min == 0 && t.Max == 1 && !pschema.IsNamedExpr(t.Inner) {
			tr.scanUnits(t.Inner, step, out)
			return
		}
		tr.namedMatches(t.Inner, step, out)
	case *xschema.Element:
		if t.Name == step {
			*out = append(*out, match{prefix: []string{step}})
		}
	case *xschema.Attribute:
		if step == t.Name || step == "@"+t.Name {
			*out = append(*out, match{prefix: []string{"@" + t.Name}})
		}
	case *xschema.Wildcard:
		if !excludes(t, step) {
			*out = append(*out, match{prefix: []string{"~"}, tagFilter: true})
		}
	case *xschema.Ref, *xschema.Choice:
		tr.namedMatches(content, step, out)
	}
}

func excludes(w *xschema.Wildcard, name string) bool {
	for _, e := range w.Exclude {
		if e == name {
			return true
		}
	}
	return false
}

// namedMatches resolves a named-type expression against a step,
// producing outlined matches with their join chains.
func (tr *translator) namedMatches(expr xschema.Type, step string, out *[]match) {
	switch t := expr.(type) {
	case *xschema.Repeat:
		tr.namedMatches(t.Inner, step, out)
	case *xschema.Choice:
		for _, alt := range t.Alts {
			tr.namedMatches(alt, step, out)
		}
	case *xschema.Sequence:
		for _, it := range t.Items {
			tr.namedMatches(it, step, out)
		}
	case *xschema.Ref:
		if !tr.enter(t.Name) {
			return
		}
		defer tr.leave()
		def, ok := tr.lookup(t.Name)
		if !ok {
			return
		}
		if pschema.IsAlias(def) {
			tr.namedMatches(def, step, out)
			return
		}
		switch body := def.(type) {
		case *xschema.Element:
			if body.Name == step {
				*out = append(*out, match{chain: []string{t.Name}})
			}
		case *xschema.Wildcard:
			if !excludes(body, step) {
				*out = append(*out, match{chain: []string{t.Name}, tagFilter: true})
			}
		case *xschema.Scalar:
			// Scalar-bodied types have no element name; unreachable by a
			// name step.
		default:
			// Group type: its content splices into the parent element, so
			// the step matches inside it; results join through this type.
			var sub []match
			tr.scanUnits(def, step, &sub)
			for _, m := range sub {
				*out = append(*out, match{
					chain:     append([]string{t.Name}, m.chain...),
					prefix:    m.prefix,
					tagFilter: m.tagFilter,
				})
			}
		}
	}
}

// columnAt finds the column of the target's table whose XMLPath is the
// target prefix extended by the given terminal ("" for exact,
// "#text"/"#tag" for node text and wildcard tags).
func (tr *translator) columnAt(tgt target, terminal string) *relational.Column {
	tbl := tr.cat.Table(tr.cat.TableOf[tgt.typeName])
	if tbl == nil {
		return nil
	}
	for _, c := range tbl.Columns {
		path := c.XMLPath
		if terminal != "" {
			if len(path) == 0 || path[len(path)-1] != terminal {
				continue
			}
			path = path[:len(path)-1]
		}
		if len(path) == len(tgt.prefix) && pathHasPrefix(path, tgt.prefix) {
			return c
		}
	}
	return nil
}

// valueColumn returns the column holding the target's scalar value, or
// nil when the target is not a value.
func (tr *translator) valueColumn(tgt target) *relational.Column {
	if len(tgt.prefix) > 0 {
		if c := tr.columnAt(tgt, ""); c != nil {
			return c
		}
	}
	return tr.columnAt(tgt, "#text")
}

func (tr *translator) applyWhere(ctxs []*context, conds []Comparison) ([]*context, error) {
	for _, cond := range conds {
		op, err := cmpOp(cond.Op)
		if err != nil {
			return nil, err
		}
		var next []*context
		for _, ctx := range ctxs {
			resolutions, err := tr.resolvePath(ctx, cond.Left)
			if err != nil {
				return nil, err
			}
			for _, r := range resolutions {
				col := tr.valueColumn(r.tgt)
				if col == nil {
					continue
				}
				left := sqlast.ColumnRef{Alias: r.tgt.alias, Column: col.Name}
				if cond.Right.Path != nil {
					rres, err := tr.resolvePath(r.ctx, *cond.Right.Path)
					if err != nil {
						return nil, err
					}
					for _, rr := range rres {
						rcol := tr.valueColumn(rr.tgt)
						if rcol == nil {
							continue
						}
						right := sqlast.ColumnRef{Alias: rr.tgt.alias, Column: rcol.Name}
						rr.ctx.block.Filters = append(rr.ctx.block.Filters, sqlast.Filter{
							Col: left, Op: op, RightCol: &right,
						})
						next = append(next, rr.ctx)
					}
					continue
				}
				r.ctx.block.Filters = append(r.ctx.block.Filters, sqlast.Filter{
					Col: left, Op: op, Value: literal(cond.Right),
				})
				next = append(next, r.ctx)
			}
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("condition %s matches nothing in the schema", cond)
		}
		ctxs = next
	}
	return ctxs, nil
}

func cmpOp(op string) (sqlast.CmpOp, error) {
	switch op {
	case "=":
		return sqlast.OpEq, nil
	case "!=":
		return sqlast.OpNe, nil
	case "<":
		return sqlast.OpLt, nil
	case "<=":
		return sqlast.OpLe, nil
	case ">":
		return sqlast.OpGt, nil
	case ">=":
		return sqlast.OpGe, nil
	default:
		return 0, fmt.Errorf("unknown comparison operator %q", op)
	}
}

func literal(o Operand) sqlast.Literal {
	switch {
	case o.Param != "":
		return sqlast.Literal{IsParam: true, Param: o.Param}
	case o.IsInt:
		return sqlast.Literal{IsInt: true, Int: o.Int}
	default:
		return sqlast.Literal{Str: o.Str}
	}
}

// processReturn turns the RETURN clause into blocks: one main block per
// context carrying the scalar projections, one block per reachable
// relation for each whole-element item (publishing), and the recursive
// expansion of nested FLWR items.
func (tr *translator) processReturn(ctxs []*context, items []ReturnItem) ([]*sqlast.Block, error) {
	var paths []Path
	var nested []*Query
	var flatten func(items []ReturnItem)
	flatten = func(items []ReturnItem) {
		for _, it := range items {
			switch {
			case it.Path != nil:
				paths = append(paths, *it.Path)
			case it.Element != nil:
				flatten(it.Element.Items)
			case it.Nested != nil:
				nested = append(nested, it.Nested)
			}
		}
	}
	flatten(items)

	// Scalar projections expand the main contexts; whole-element paths
	// are collected for publishing.
	var publish []Path
	scalarCtxs := ctxs
	anyScalar := false
	for _, p := range paths {
		// Classify on the first context where the path resolves.
		kind, err := tr.classifyPath(ctxs, p)
		if err != nil {
			return nil, err
		}
		if kind == pathPublish {
			publish = append(publish, p)
			continue
		}
		anyScalar = true
		var next []*context
		for _, ctx := range scalarCtxs {
			resolutions, err := tr.resolvePath(ctx, p)
			if err != nil {
				return nil, err
			}
			if len(resolutions) == 0 {
				// The path names nothing on this alternative (e.g. a TV
				// field on the movie partition): the item is simply
				// absent from this part of the union.
				next = append(next, ctx)
				continue
			}
			for _, r := range resolutions {
				if col := tr.valueColumn(r.tgt); col != nil {
					r.ctx.projects = append(r.ctx.projects, sqlast.ColumnRef{Alias: r.tgt.alias, Column: col.Name})
				}
				next = append(next, r.ctx)
			}
		}
		scalarCtxs = next
	}

	var blocks []*sqlast.Block
	if anyScalar {
		for _, ctx := range scalarCtxs {
			if len(ctx.projects) == 0 {
				continue
			}
			b := ctx.block
			b.Projects = ctx.projects
			blocks = append(blocks, b.Clone())
		}
	}
	for _, p := range publish {
		for _, ctx := range ctxs {
			resolutions, err := tr.resolvePath(ctx, p)
			if err != nil {
				return nil, err
			}
			for _, r := range resolutions {
				pb, err := tr.publishBlocks(r.ctx, r.tgt)
				if err != nil {
					return nil, err
				}
				blocks = append(blocks, pb...)
			}
		}
	}
	for _, nq := range nested {
		nctxs, err := tr.applyBindings(forkAll(ctxs), nq.Bindings)
		if err != nil {
			return nil, err
		}
		nctxs, err = tr.applyWhere(nctxs, nq.Where)
		if err != nil {
			return nil, err
		}
		nb, err := tr.processReturn(nctxs, nq.Return)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, nb...)
	}
	return blocks, nil
}

func forkAll(ctxs []*context) []*context {
	out := make([]*context, len(ctxs))
	for i, c := range ctxs {
		out[i] = c.fork()
	}
	return out
}

type pathKind int

const (
	pathScalar pathKind = iota
	pathPublish
)

// classifyPath decides whether a return path is a scalar value or a
// whole-element (publish) item, using the first context in which it
// resolves.
func (tr *translator) classifyPath(ctxs []*context, p Path) (pathKind, error) {
	if len(p.Steps) == 0 {
		return pathPublish, nil
	}
	for _, ctx := range ctxs {
		resolutions, err := tr.resolvePath(ctx, p)
		if err != nil {
			return 0, err
		}
		for _, r := range resolutions {
			if tr.valueColumn(r.tgt) != nil {
				return pathScalar, nil
			}
			return pathPublish, nil
		}
	}
	return 0, fmt.Errorf("return path %s matches nothing in the schema", p)
}

// publishBlocks emits the sorted-outer-union skeleton for publishing a
// target: one block projecting the target's own columns, plus one block
// per relation reachable below it.
func (tr *translator) publishBlocks(ctx *context, tgt target) ([]*sqlast.Block, error) {
	var blocks []*sqlast.Block

	self := forkBlock(&ctx.block)
	tbl := tr.cat.Table(tr.cat.TableOf[tgt.typeName])
	if tbl == nil {
		return nil, fmt.Errorf("no table for type %s", tgt.typeName)
	}
	for _, c := range tbl.Columns {
		if len(tgt.prefix) == 0 || pathHasPrefix(c.XMLPath, tgt.prefix) {
			self.Projects = append(self.Projects, sqlast.ColumnRef{Alias: tgt.alias, Column: c.Name})
		}
	}
	if len(self.Projects) > 0 {
		blocks = append(blocks, self.Clone())
	}

	content, err := tr.contentAt(tgt.typeName, tgt.prefix)
	if err != nil {
		return nil, err
	}
	var chains [][]string
	tr.collectDescendants(content, nil, &chains)
	for _, chain := range chains {
		b := forkBlock(&ctx.block)
		parentAlias := tgt.alias
		parentTable := tr.cat.TableOf[tgt.typeName]
		ok := true
		var lastAlias string
		var lastTable *relational.Table
		for _, hop := range chain {
			childName := tr.cat.TableOf[hop]
			child := tr.cat.Table(childName)
			if child == nil {
				ok = false
				break
			}
			alias := nextAlias(&b)
			b.AddTable(childName, alias)
			fk := ""
			for _, e := range child.Parents {
				if e.Parent == parentTable {
					fk = e.FKColumn
					break
				}
			}
			if fk == "" {
				ok = false
				break
			}
			b.Joins = append(b.Joins, sqlast.Join{
				Left:  sqlast.ColumnRef{Alias: alias, Column: fk},
				Right: sqlast.ColumnRef{Alias: parentAlias, Column: tr.cat.Table(parentTable).Key()},
			})
			parentAlias, parentTable = alias, childName
			lastAlias, lastTable = alias, child
		}
		if !ok || lastTable == nil {
			continue
		}
		for _, c := range lastTable.Columns {
			b.Projects = append(b.Projects, sqlast.ColumnRef{Alias: lastAlias, Column: c.Name})
		}
		blocks = append(blocks, b.Clone())
	}
	return blocks, nil
}

func pathHasPrefix(path, prefix []string) bool {
	if len(path) < len(prefix) {
		return false
	}
	for i := range prefix {
		if path[i] != prefix[i] {
			return false
		}
	}
	return true
}

// collectDescendants gathers the chains of concrete types reachable from
// content, transitively, looking through aliases. Recursive types are
// expanded once.
func (tr *translator) collectDescendants(content xschema.Type, chain []string, out *[][]string) {
	switch t := content.(type) {
	case *xschema.Sequence:
		for _, it := range t.Items {
			tr.collectDescendants(it, chain, out)
		}
	case *xschema.Repeat:
		tr.collectDescendants(t.Inner, chain, out)
	case *xschema.Choice:
		for _, alt := range t.Alts {
			tr.collectDescendants(alt, chain, out)
		}
	case *xschema.Element:
		tr.collectDescendants(t.Content, chain, out)
	case *xschema.Wildcard:
		tr.collectDescendants(t.Content, chain, out)
	case *xschema.Ref:
		if !tr.enter(t.Name) {
			return
		}
		defer tr.leave()
		def, ok := tr.lookup(t.Name)
		if !ok {
			return
		}
		if pschema.IsAlias(def) {
			tr.collectDescendants(def, chain, out)
			return
		}
		next := append(append(make([]string, 0, len(chain)+1), chain...), t.Name)
		*out = append(*out, next)
		tr.collectDescendants(def, next, out)
	}
}
