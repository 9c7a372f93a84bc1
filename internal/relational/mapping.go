package relational

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"legodb/internal/faults"
	"legodb/internal/pschema"
	"legodb/internal/xschema"
)

// Options tunes the fixed mapping.
type Options struct {
	// RootCount is the number of root-element instances stored (number of
	// documents); default 1.
	RootCount float64
	// DefaultStringSize is the assumed width of strings without size
	// statistics; default 30 bytes.
	DefaultStringSize int
}

func (o *Options) setDefaults() {
	if o.RootCount == 0 {
		o.RootCount = 1
	}
	if o.DefaultStringSize == 0 {
		o.DefaultStringSize = 30
	}
}

// Map applies the fixed mapping of Section 3.2 to a physical schema,
// producing a relational catalog with statistics. rel(ps) in the paper.
func Map(s *xschema.Schema) (*Catalog, error) {
	return MapWith(s, Options{})
}

// MapWith is Map with explicit options (a one-shot Mapper).
func MapWith(s *xschema.Schema, opts Options) (*Catalog, error) {
	return NewMapper(opts).Map(s, nil)
}

// Mapper maps p-schemas to catalogs, memoizing whole tables across
// calls, keyed by everything buildTable reads: the definition's shallow
// digest (xschema.TypeDigests), the type name, the table's cardinality,
// and its incoming edges with their fan-outs and parent cardinalities.
// A candidate's rewrite moves the inputs of the rewritten table and of
// the tables whose cardinalities it changes; every other table of the
// candidate's catalog is the base catalog's table.
//
// Memoized tables are shared by pointer between catalogs; all mapping
// consumers treat built catalogs as immutable (see Catalog.Clone). A
// Mapper is safe for concurrent use.
type Mapper struct {
	opts Options
	// mu is an RWMutex because the memo is read-mostly: in the search's
	// steady state every worker re-maps candidates whose definitions are
	// almost all unchanged, so lookups dominate stores and must not
	// serialize the worker pool.
	mu     sync.RWMutex
	tables map[uint64]*tableEntry
}

// tableEntry is one memoized table with the incoming edges it was
// built from (its other inputs are the table's own TypeDigest,
// TypeName and Rows).
type tableEntry struct {
	in    []inEdge
	table *Table
}

// inEdge is one incoming edge of a table as buildTable reads it: the
// parent type, the fan-out, and the parent's cardinality.
type inEdge struct {
	parent    string
	avg, card float64
}

// matches reports whether the entry was built from exactly these inputs
// (floats compared bit for bit).
func (e *tableEntry) matches(dig xschema.Fingerprint, name string, rows float64, in []inEdge) bool {
	t := e.table
	if t.TypeDigest != dig || t.TypeName != name || math.Float64bits(t.Rows) != math.Float64bits(rows) || len(e.in) != len(in) {
		return false
	}
	for i, x := range in {
		y := e.in[i]
		if x.parent != y.parent || math.Float64bits(x.avg) != math.Float64bits(y.avg) || math.Float64bits(x.card) != math.Float64bits(y.card) {
			return false
		}
	}
	return true
}

// tableKey hashes a table's mapping inputs into its memo slot.
func tableKey(dig xschema.Fingerprint, name string, rows float64, in []inEdge) uint64 {
	h := tblFNVOffset
	for _, b := range dig {
		h = tblHashByte(h, b)
	}
	h = tblHashStr(h, name)
	h = tblHashFloat(h, rows)
	for _, e := range in {
		h = tblHashStr(h, e.parent)
		h = tblHashFloat(h, e.avg)
		h = tblHashFloat(h, e.card)
	}
	return h
}

// mapperMemoCap bounds the table memo; on overflow it resets
// (deterministic: the memo affects sharing and speed, never values).
const mapperMemoCap = 4096

// NewMapper returns a Mapper with the given options.
func NewMapper(opts Options) *Mapper {
	opts.setDefaults()
	return &Mapper{opts: opts, tables: make(map[uint64]*tableEntry)}
}

// Map builds the catalog for one p-schema. digests are the schema's
// shallow per-type digests (xschema.TypeDigests); pass nil to have Map
// compute them. Every produced table carries its TypeDigest and a
// content Digest.
func (mp *Mapper) Map(s *xschema.Schema, digests map[string]xschema.Fingerprint) (*Catalog, error) {
	if err := faults.Inject(faults.SiteMap); err != nil {
		return nil, err
	}
	if err := pschema.Check(s); err != nil {
		return nil, err
	}
	if digests == nil {
		digests = s.TypeDigests()
	}
	m := &mapper{schema: s, opts: mp.opts, alias: make(map[string]bool), mp: mp, digests: digests}
	for _, name := range s.Names {
		m.alias[name] = pschema.IsAlias(s.Types[name])
	}
	edges, err := m.collectEdges()
	if err != nil {
		return nil, err
	}
	cards := m.cardinalities(edges)
	cat := &Catalog{
		Tables:  make(map[string]*Table, len(s.Names)),
		Order:   make([]string, 0, len(s.Names)),
		TableOf: make(map[string]string, len(s.Names)),
	}
	var in []inEdge
	for _, name := range s.Names {
		if m.alias[name] {
			cat.TableOf[name] = ""
			continue
		}
		in = in[:0]
		for _, e := range edges {
			if e.child == name {
				in = append(in, inEdge{parent: e.parent, avg: e.avg, card: cards[e.parent]})
			}
		}
		t, err := m.table(name, cards[name], in)
		if err != nil {
			return nil, err
		}
		cat.Add(t)
	}
	cat.RootTable = cat.TableOf[s.Root]
	return cat, nil
}

// table returns the memoized table built from these inputs, building
// and memoizing it on a miss. On a race the first stored table wins.
func (m *mapper) table(name string, rows float64, in []inEdge) (*Table, error) {
	mp, dig := m.mp, m.digests[name]
	key := tableKey(dig, name, rows, in)
	mp.mu.RLock()
	e := mp.tables[key]
	mp.mu.RUnlock()
	if e != nil && e.matches(dig, name, rows, in) {
		return e.table, nil
	}
	t, err := m.buildTable(name, rows, in)
	if err != nil {
		return nil, err
	}
	mp.mu.Lock()
	defer mp.mu.Unlock()
	if e := mp.tables[key]; e != nil && e.matches(dig, name, rows, in) {
		return e.table, nil
	}
	if len(mp.tables) >= mapperMemoCap {
		mp.tables = make(map[uint64]*tableEntry)
	}
	mp.tables[key] = &tableEntry{in: append([]inEdge(nil), in...), table: t}
	return t, nil
}

type mapper struct {
	schema  *xschema.Schema
	opts    Options
	alias   map[string]bool
	mp      *Mapper
	digests map[string]xschema.Fingerprint
}

// refEdge is a raw type-to-type reference with its multiplicity.
type refEdge struct {
	parent, child string // type names (non-alias)
	avg           float64
}

// collectEdges walks every non-alias type body and records, for each
// reachable non-alias referenced type, the average number of instances
// per parent instance. Alias types are looked through, multiplying
// repetition counts and union fractions along the way.
func (m *mapper) collectEdges() ([]refEdge, error) {
	var edges []refEdge
	for _, name := range m.schema.Names {
		if m.alias[name] {
			continue
		}
		acc := make(map[string]float64)
		seen := make(map[string]int)
		if err := m.edgeWalk(m.schema.Types[name], 1, acc, seen); err != nil {
			return nil, fmt.Errorf("relational: type %s: %w", name, err)
		}
		for child, avg := range acc {
			edges = append(edges, refEdge{parent: name, child: child, avg: avg})
		}
	}
	return edges, nil
}

func (m *mapper) edgeWalk(t xschema.Type, mult float64, acc map[string]float64, seen map[string]int) error {
	switch t := t.(type) {
	case *xschema.Ref:
		if m.alias[t.Name] {
			if seen[t.Name] >= 2 {
				return nil
			}
			seen[t.Name]++
			def, ok := m.schema.Lookup(t.Name)
			if !ok {
				return fmt.Errorf("undefined type %q", t.Name)
			}
			err := m.edgeWalk(def, mult, acc, seen)
			seen[t.Name]--
			return err
		}
		acc[t.Name] += mult
		return nil
	case *xschema.Repeat:
		return m.edgeWalk(t.Inner, mult*effectiveCount(t), acc, seen)
	case *xschema.Choice:
		// Without annotated fractions the alternatives split uniformly.
		// The uniform prior ranges over the flattened alternative list
		// (fraction-less nested choices spliced in), so that associatively
		// re-grouped unions — which match, map and translate identically —
		// also cost identically. This is the invariant that lets the
		// canonical fingerprint flatten fraction-less choice nesting.
		alts := t.Alts
		if len(t.Fractions) == 0 {
			alts = xschema.FlattenChoice(t)
		}
		for i, alt := range alts {
			frac := 1.0 / float64(len(alts))
			if len(t.Fractions) == len(alts) {
				frac = t.Fractions[i]
			}
			if err := m.edgeWalk(alt, mult*frac, acc, seen); err != nil {
				return err
			}
		}
		return nil
	case *xschema.Sequence:
		for _, it := range t.Items {
			if err := m.edgeWalk(it, mult, acc, seen); err != nil {
				return err
			}
		}
		return nil
	case *xschema.Element:
		return m.edgeWalk(t.Content, mult, acc, seen)
	case *xschema.Wildcard:
		return m.edgeWalk(t.Content, mult, acc, seen)
	default:
		return nil
	}
}

// effectiveCount estimates the average occurrence count of a repetition:
// the annotated statistic when present, the bound midpoint otherwise.
func effectiveCount(r *xschema.Repeat) float64 {
	if r.AvgCount > 0 {
		return r.AvgCount
	}
	switch {
	case r.Min == 0 && r.Max == 1:
		return 0.5
	case r.Max == xschema.Unbounded:
		return float64(r.Min) + 1
	default:
		return float64(r.Min+r.Max) / 2
	}
}

// cardinalities solves card(C) = Σ_P card(P)·fanout(P→C) with the root at
// Options.RootCount. Acyclic schemas converge in one topological pass;
// recursive schemas are approximated by bounded iteration.
func (m *mapper) cardinalities(edges []refEdge) map[string]float64 {
	cards := make(map[string]float64, len(m.schema.Names))
	next := make(map[string]float64, len(m.schema.Names))
	rounds := len(m.schema.Names) + 2
	if rounds < 16 {
		rounds = 16
	}
	for i := 0; i < rounds; i++ {
		clear(next)
		next[m.schema.Root] = m.opts.RootCount
		for _, e := range edges {
			next[e.child] += cards[e.parent] * e.avg
		}
		converged := len(next) == len(cards)
		if converged {
			for k, v := range next {
				if diff := v - cards[k]; diff > 0.001 || diff < -0.001 {
					converged = false
					break
				}
			}
		}
		cards, next = next, cards
		if converged {
			break
		}
	}
	return cards
}

// buildTable constructs the relation for one non-alias type from its
// cardinality and its incoming edges: the key, the inline columns of the
// definition's body, and one FK column per incoming edge.
func (m *mapper) buildTable(name string, rows float64, in []inEdge) (*Table, error) {
	t := &Table{Name: sanitize(name), TypeName: name, Rows: rows, TypeDigest: m.digests[name]}
	cols, err := m.rootColumns(m.schema.Types[name])
	if err != nil {
		return nil, fmt.Errorf("relational: type %s: %w", name, err)
	}
	cols = dedupe(cols)
	t.Columns = make([]*Column, 0, 1+len(cols)+len(in))
	t.Columns = append(t.Columns, &Column{
		Name: t.Key(), Type: IntCol, Size: 4, Key: true, Distinct: rows,
	})
	t.Columns = append(t.Columns, cols...)
	// Each FK column is NULL on rows that belong to a different parent
	// type (e.g. Aka rows under Show_Part2 have a NULL parent_Show_Part1
	// after union distribution); record the share so join estimates stay
	// accurate.
	totalIn := 0.0
	for _, e := range in {
		totalIn += e.card * e.avg
	}
	if len(in) > 0 {
		t.Parents = make([]*Edge, 0, len(in))
	}
	for _, e := range in {
		parentTable := sanitize(e.parent)
		share := 1.0
		if totalIn > 0 {
			share = e.card * e.avg / totalIn
		}
		fk := &Column{
			Name:         "parent_" + parentTable,
			Type:         IntCol,
			Size:         4,
			Distinct:     e.card,
			FKRef:        parentTable,
			Nullable:     share < 0.9999,
			NullFraction: 1 - share,
		}
		t.Columns = append(t.Columns, fk)
		t.Parents = append(t.Parents, &Edge{
			Child: t.Name, Parent: parentTable, FKColumn: fk.Name, AvgPerParent: e.avg,
		})
	}
	t.computeDigest()
	return t, nil
}

// rootColumns maps a type body to columns. The body-root element names
// the entity the table stores; its tag does not prefix column names
// (TABLE Show has column title, not show_title), matching Figure 3.
//
// XMLPath conventions (consumed by the shredder and the query
// translator): plain components navigate to a named child and the value
// is that child's text; "@a" reads attribute a; "~" steps into the
// wildcard child element; "#tag" reads the current node's tag name;
// "#text" reads the current node's own text.
func (m *mapper) rootColumns(body xschema.Type) ([]*Column, error) {
	switch b := body.(type) {
	case *xschema.Element:
		if sc, ok := b.Content.(*xschema.Scalar); ok {
			col := m.scalarColumn(sc, nil, b.Name, false, 0)
			col.XMLPath = []string{"#text"}
			return []*Column{col}, nil
		}
		return m.columns(b.Content, nil, false, 0)
	case *xschema.Wildcard:
		tag := &Column{
			Name: "tilde", Type: CharCol, Size: 20,
			XMLPath: []string{"#tag"},
		}
		if sc, ok := b.Content.(*xschema.Scalar); ok {
			col := m.scalarColumn(sc, nil, "data", false, 0)
			col.XMLPath = []string{"#text"}
			return []*Column{tag, col}, nil
		}
		inner, err := m.columns(b.Content, nil, false, 0)
		if err != nil {
			return nil, err
		}
		return append([]*Column{tag}, inner...), nil
	case *xschema.Scalar:
		col := m.scalarColumn(b, nil, "data", false, 0)
		col.XMLPath = []string{"#text"}
		return []*Column{col}, nil
	default:
		return m.columns(body, nil, false, 0)
	}
}

// columns maps physical content to relational columns per Table 1 (μ and
// μ_o). prefix is the element-name path inside the type; nullable/nullFrac
// track optionality.
func (m *mapper) columns(t xschema.Type, prefix []string, nullable bool, nullFrac float64) ([]*Column, error) {
	switch t := t.(type) {
	case *xschema.Scalar:
		col := m.scalarColumn(t, prefix, "", nullable, nullFrac)
		col.XMLPath = extend(prefix, "#text")
		return []*Column{col}, nil
	case *xschema.Attribute:
		sc, ok := t.Content.(*xschema.Scalar)
		if !ok {
			return nil, fmt.Errorf("attribute @%s content is not scalar", t.Name)
		}
		col := m.scalarColumn(sc, prefix, t.Name, nullable, nullFrac)
		col.XMLPath = extend(prefix, "@"+t.Name)
		return []*Column{col}, nil
	case *xschema.Element:
		if sc, ok := t.Content.(*xschema.Scalar); ok {
			col := m.scalarColumn(sc, prefix, t.Name, nullable, nullFrac)
			col.XMLPath = extend(prefix, t.Name)
			return []*Column{col}, nil
		}
		return m.columns(t.Content, extend(prefix, t.Name), nullable, nullFrac)
	case *xschema.Wildcard:
		tag := &Column{
			Name:         joinName(prefix, "tilde"),
			Type:         CharCol,
			Size:         20,
			Nullable:     nullable,
			NullFraction: nullFrac,
			XMLPath:      extend(extend(prefix, "~"), "#tag"),
		}
		cols := []*Column{tag}
		if sc, ok := t.Content.(*xschema.Scalar); ok {
			col := m.scalarColumn(sc, prefix, "data", nullable, nullFrac)
			col.XMLPath = extend(extend(prefix, "~"), "#text")
			cols = append(cols, col)
			return cols, nil
		}
		inner, err := m.columns(t.Content, extend(prefix, "~"), nullable, nullFrac)
		if err != nil {
			return nil, err
		}
		return append(cols, inner...), nil
	case *xschema.Sequence:
		var out []*Column
		for _, it := range t.Items {
			cols, err := m.columns(it, prefix, nullable, nullFrac)
			if err != nil {
				return nil, err
			}
			out = append(out, cols...)
		}
		return out, nil
	case *xschema.Repeat:
		if t.Min == 0 && t.Max == 1 && !pschema.IsNamedExpr(t.Inner) {
			presence := t.AvgCount
			if presence <= 0 || presence > 1 {
				presence = 0.5
			}
			newNull := 1 - (1-nullFrac)*presence
			return m.columns(t.Inner, prefix, true, newNull)
		}
		return nil, nil // named expression: FK edge only
	case *xschema.Choice, *xschema.Ref:
		return nil, nil // named expression: FK edge only
	case *xschema.Empty:
		return nil, nil
	default:
		return nil, fmt.Errorf("cannot map %s to columns", t)
	}
}

// scalarColumn builds a column for a scalar value reached under prefix
// with the final component name (empty for bare scalar type bodies).
func (m *mapper) scalarColumn(sc *xschema.Scalar, prefix []string, name string, nullable bool, nullFrac float64) *Column {
	colName := joinName(prefix, name)
	if colName == "" {
		colName = "data"
	}
	col := &Column{
		Name:         colName,
		Nullable:     nullable,
		NullFraction: nullFrac,
		Distinct:     float64(sc.Distinct),
		Min:          sc.Min,
		Max:          sc.Max,
		Hist:         append([]float64(nil), sc.Hist...),
	}
	switch sc.Kind {
	case xschema.IntegerKind:
		col.Type = IntCol
		col.Size = 4
	default:
		if sc.Size > 0 {
			col.Type = CharCol
			col.Size = sc.Size
		} else {
			col.Type = VarCharCol
			col.Size = m.opts.DefaultStringSize
		}
	}
	return col
}

// extend returns prefix + component in fresh storage (so sibling walks
// never share backing arrays).
func extend(prefix []string, component string) []string {
	out := make([]string, 0, len(prefix)+1)
	out = append(out, prefix...)
	return append(out, component)
}

func joinName(prefix []string, name string) string {
	parts := make([]string, 0, len(prefix)+1)
	for _, p := range prefix {
		if p == "~" {
			p = "tilde"
		}
		parts = append(parts, p)
	}
	if name != "" {
		parts = append(parts, name)
	}
	return strings.Join(parts, "_")
}

// dedupe renames duplicate column names (a, a_2, a_3, ...), which can
// arise when unions with equally-named branches are flattened.
func dedupe(cols []*Column) []*Column {
	seen := make(map[string]int, len(cols))
	for _, c := range cols {
		seen[c.Name]++
		if n := seen[c.Name]; n > 1 {
			c.Name = fmt.Sprintf("%s_%d", c.Name, n)
		}
	}
	return cols
}

// sanitize converts a type name to a legal SQL identifier.
func sanitize(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "T"
	}
	return b.String()
}
