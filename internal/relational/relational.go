// Package relational defines relational schemas (catalogs) and the fixed
// mapping from physical XML schemas to relations described in Section 3.2
// and Table 1 of the paper:
//
//   - one relation per named type (alias types — pure named-type
//     expressions such as `type Show = (Show_Part1 | Show_Part2)` —
//     produce no relation and are looked through);
//   - a key column <Table>_id per relation;
//   - a foreign key parent_<P> per (transitive, alias-collapsed) parent
//     type P;
//   - one column per physical subelement, attribute or wildcard, with
//     nested elements prefix-joined (a_b) and optional content nullable.
//
// Statistics from the p-schema (scalar sizes/distributions, repetition
// counts, union fractions) propagate into table cardinalities, row
// widths, column distinct counts and null fractions — the relational
// catalog the cost-based optimizer consumes.
package relational

import (
	"fmt"
	"math"
	"strings"

	"legodb/internal/xschema"
)

// ColumnType enumerates the SQL column types produced by the mapping.
type ColumnType int

const (
	// IntCol is a 4-byte INTEGER.
	IntCol ColumnType = iota
	// CharCol is a fixed-size CHAR(n).
	CharCol
	// VarCharCol is a variable-size string with an estimated average
	// width (used when the schema carries no size statistics).
	VarCharCol
)

func (t ColumnType) String() string {
	switch t {
	case IntCol:
		return "INT"
	case CharCol:
		return "CHAR"
	case VarCharCol:
		return "STRING"
	default:
		return fmt.Sprintf("ColumnType(%d)", int(t))
	}
}

// Column is one relational attribute with its statistics.
type Column struct {
	Name     string
	Type     ColumnType
	Size     int // average stored width in bytes
	Nullable bool
	// NullFraction is the estimated fraction of NULL values (optional
	// content inlined from unions or ?-elements).
	NullFraction float64
	// Distinct is the estimated number of distinct non-null values
	// (0 = unknown).
	Distinct float64
	// Min/Max bound integer columns when known.
	Min, Max int64
	// Hist, when present, is an equi-width histogram over [Min, Max]:
	// the fraction of values per bucket (improves range selectivity on
	// skewed data; an extension beyond the paper's uniform assumption).
	Hist []float64
	// Key marks the table's id column; FKRef names the referenced table
	// for foreign keys.
	Key   bool
	FKRef string
	// Index marks a secondary index on the column: part of the physical
	// design, chosen by optimizer.ChooseIndexes from a workload and never
	// set by the mapping. Unset everywhere is the paper's assumption that
	// each relation is indexed on its key only. See AccessPath.
	Index bool
	// XMLPath records the element path of this column inside its type's
	// content (used by the query translator and the shredder).
	XMLPath []string
}

// AccessPath is the one rule by which the optimizer and the engine decide
// that a query plan may enter a relation through this column instead of
// scanning it: the key, as in the paper, or a column carrying a chosen
// secondary index (a foreign key included — its publisher index exists
// either way, but plans use it only when the design says so).
func (c *Column) AccessPath() bool { return c.Key || c.Index }

// Maintained reports whether writes to the table maintain an index on the
// column: the key, every foreign key (the publisher's child lookups), and
// every chosen secondary index.
func (c *Column) Maintained() bool { return c.Key || c.FKRef != "" || c.Index }

// SQL renders the column as a DDL fragment.
func (c *Column) SQL() string {
	var typ string
	switch c.Type {
	case IntCol:
		typ = "INT"
	case CharCol:
		typ = fmt.Sprintf("CHAR(%d)", c.Size)
	default:
		typ = "STRING"
	}
	s := fmt.Sprintf("%s %s", c.Name, typ)
	if c.Nullable {
		s += " NULL"
	}
	return s
}

// Table is one relation produced by the mapping.
type Table struct {
	Name     string
	TypeName string // originating p-schema type
	Columns  []*Column
	// Rows is the estimated cardinality.
	Rows float64
	// Parents lists FK edges to parent tables.
	Parents []*Edge
	// TypeDigest is the shallow digest of the p-schema definition this
	// table derives from (xschema.TypeDigests), threaded through by the
	// mapper.
	TypeDigest xschema.Fingerprint
	// Digest hashes the table's complete content — name, cardinality,
	// every column field the translator or optimizer reads, and the
	// parent edges. Two tables with equal digests translate and cost
	// identically; the per-query cost cache keys on it.
	Digest uint64
	// ShapeDigest hashes only what the query translator reads: the table
	// and column names, column types, key/FK structure and XML paths —
	// no cardinalities, sizes or null fractions. Two tables with equal
	// shape digests translate identically even when their statistics
	// differ, so the per-query cache can reuse a stored translation and
	// pay only re-costing when a transformation elsewhere in the schema
	// shifted this table's row estimates.
	ShapeDigest uint64
}

// Edge is a parent-child relationship: rows of Child carry a foreign key
// to rows of Parent.
type Edge struct {
	Child, Parent string // table names
	FKColumn      string
	// AvgPerParent is the average number of child rows per parent row
	// along this edge.
	AvgPerParent float64
}

// Key returns the table's id column name.
func (t *Table) Key() string { return t.Name + "_id" }

// fnv64a primitives for the table digests, inlined so computeDigest —
// run once per table per mapped candidate schema — neither heap-
// allocates a hash state nor copies strings into byte slices.
const (
	tblFNVOffset uint64 = 14695981039346656037
	tblFNVPrime  uint64 = 1099511628211
)

func tblHashByte(h uint64, c byte) uint64 { return (h ^ uint64(c)) * tblFNVPrime }

func tblHashStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * tblFNVPrime
	}
	return tblHashByte(h, 0) // terminator keeps the encoding unambiguous
}

func tblHashFloat(h uint64, v float64) uint64 {
	bits := math.Float64bits(v)
	for i := 0; i < 64; i += 8 {
		h = (h ^ (bits >> i & 0xFF)) * tblFNVPrime
	}
	return h
}

func tblHashBool(h uint64, b bool) uint64 {
	if b {
		return tblHashByte(h, 1)
	}
	return tblHashByte(h, 0)
}

// computeDigest fills t.Digest and t.ShapeDigest from the table's
// content in one pass. Digest covers every field a downstream consumer
// (query translator, optimizer, DDL renderer) reads: if two tables
// digest equal, substituting one for the other must be unobservable.
// ShapeDigest covers only the translator's read set — names, column
// types, key/FK structure and XML paths — so it is invariant under
// statistics-only changes (row counts, sizes, null fractions,
// histograms).
func (t *Table) computeDigest() {
	full, shape := tblFNVOffset, tblFNVOffset
	full = tblHashStr(full, t.Name)
	full = tblHashStr(full, t.TypeName)
	full = tblHashFloat(full, t.Rows)
	shape = tblHashStr(shape, t.Name)
	shape = tblHashStr(shape, t.TypeName)
	for _, c := range t.Columns {
		full = tblHashStr(full, c.Name)
		full = tblHashFloat(full, float64(c.Type))
		full = tblHashFloat(full, float64(c.Size))
		full = tblHashBool(full, c.Nullable)
		full = tblHashFloat(full, c.NullFraction)
		full = tblHashFloat(full, c.Distinct)
		full = tblHashFloat(full, float64(c.Min))
		full = tblHashFloat(full, float64(c.Max))
		for _, b := range c.Hist {
			full = tblHashFloat(full, b)
		}
		full = tblHashBool(full, c.Key)
		full = tblHashStr(full, c.FKRef)
		for _, p := range c.XMLPath {
			full = tblHashStr(full, p)
		}
		if c.Index {
			// Folded only when set, so a catalog without secondary
			// indexes digests exactly as it did before they existed.
			full = tblHashStr(full, "idx")
		}
		full = tblHashStr(full, "|")

		shape = tblHashStr(shape, c.Name)
		shape = tblHashFloat(shape, float64(c.Type))
		shape = tblHashBool(shape, c.Key)
		shape = tblHashStr(shape, c.FKRef)
		for _, p := range c.XMLPath {
			shape = tblHashStr(shape, p)
		}
		shape = tblHashStr(shape, "|")
	}
	for _, e := range t.Parents {
		full = tblHashStr(full, e.Child)
		full = tblHashStr(full, e.Parent)
		full = tblHashStr(full, e.FKColumn)
		full = tblHashFloat(full, e.AvgPerParent)

		shape = tblHashStr(shape, e.Child)
		shape = tblHashStr(shape, e.Parent)
		shape = tblHashStr(shape, e.FKColumn)
	}
	t.Digest = full
	t.ShapeDigest = shape
}

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	for _, c := range t.Columns {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// RowBytes estimates the stored width of one row: column payloads plus a
// per-column presence byte and a row header. Storage is fixed-width, as
// in the paper's target system (SQL Server 6.5 CHAR columns): NULL values
// still occupy their column's full width. This is what makes the
// ALL-INLINED configuration's Show relation "wider than necessary"
// (Section 2) — inlined union branches cost width in every row.
func (t *Table) RowBytes() float64 {
	const rowHeader = 8
	total := float64(rowHeader)
	for _, c := range t.Columns {
		total += float64(c.Size) + 1
	}
	return total
}

// SQL renders a CREATE TABLE statement.
func (t *Table) SQL() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE %s (\n", t.Name)
	for i, c := range t.Columns {
		sep := ","
		if i == len(t.Columns)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %s%s\n", c.SQL(), sep)
	}
	b.WriteString(")")
	return b.String()
}

// Catalog is a relational schema with statistics: the output of the fixed
// mapping and the input of the optimizer.
type Catalog struct {
	Tables map[string]*Table
	Order  []string // table creation order (stable)
	// TableOf maps p-schema type names to table names; alias types map to
	// "".
	TableOf map[string]string
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{Tables: make(map[string]*Table), TableOf: make(map[string]string)}
}

// Add registers a table.
func (c *Catalog) Add(t *Table) {
	if _, exists := c.Tables[t.Name]; !exists {
		c.Order = append(c.Order, t.Name)
	}
	c.Tables[t.Name] = t
	if t.TypeName != "" {
		c.TableOf[t.TypeName] = t.Name
	}
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table { return c.Tables[name] }

// TotalBytes estimates the stored size of the whole database.
func (c *Catalog) TotalBytes() float64 {
	total := 0.0
	for _, name := range c.Order {
		t := c.Tables[name]
		total += t.Rows * t.RowBytes()
	}
	return total
}

// SQL renders the catalog's tables as DDL.
func (c *Catalog) SQL() string {
	var b strings.Builder
	for _, name := range c.Order {
		b.WriteString(c.Tables[name].SQL())
		b.WriteString("\n\n")
	}
	return b.String()
}

// IndexSQL renders one CREATE INDEX line per chosen secondary index.
func (c *Catalog) IndexSQL() string {
	var b strings.Builder
	for _, ref := range c.Indexes() {
		fmt.Fprintf(&b, "CREATE INDEX idx_%s_%s ON %s (%s)\n", ref.Table, ref.Column, ref.Table, ref.Column)
	}
	return b.String()
}

// IndexRef names one column carrying a secondary index.
type IndexRef struct {
	Table, Column string
}

func (r IndexRef) String() string { return r.Table + "." + r.Column }

// Indexes lists the chosen secondary indexes in catalog order (tables in
// creation order, columns in definition order).
func (c *Catalog) Indexes() []IndexRef {
	var out []IndexRef
	for _, name := range c.Order {
		for _, col := range c.Tables[name].Columns {
			if col.Index {
				out = append(out, IndexRef{Table: name, Column: col.Name})
			}
		}
	}
	return out
}

// SetIndexes makes refs the catalog's whole secondary-index set: the
// named columns are flagged, every other flag is cleared, and the digests
// of the tables whose flags changed are recomputed. Names that match no
// column are ignored. Only a catalog no one else reads may be changed
// this way — a Clone, never one shared with the search's caches.
func (c *Catalog) SetIndexes(refs []IndexRef) {
	want := make(map[IndexRef]bool, len(refs))
	for _, r := range refs {
		want[r] = true
	}
	for _, name := range c.Order {
		t := c.Tables[name]
		changed := false
		for _, col := range t.Columns {
			if on := want[IndexRef{Table: name, Column: col.Name}]; on != col.Index {
				col.Index = on
				changed = true
			}
		}
		if changed {
			t.computeDigest()
		}
	}
}

// Clone returns a catalog that shares nothing mutable with c: tables and
// columns are copied (the mapper shares column templates between the
// catalogs it builds, so flags must never be set on those), statistics
// slices and parent edges, which nothing mutates, are shared.
func (c *Catalog) Clone() *Catalog {
	out := &Catalog{
		Tables:  make(map[string]*Table, len(c.Tables)),
		Order:   append([]string(nil), c.Order...),
		TableOf: make(map[string]string, len(c.TableOf)),
	}
	for k, v := range c.TableOf {
		out.TableOf[k] = v
	}
	for name, t := range c.Tables {
		ct := *t
		ct.Columns = make([]*Column, len(t.Columns))
		for i, col := range t.Columns {
			cc := *col
			ct.Columns[i] = &cc
		}
		out.Tables[name] = &ct
	}
	return out
}

// String summarizes the catalog: one line per table with cardinality and
// width.
func (c *Catalog) String() string {
	var b strings.Builder
	for _, name := range c.Order {
		t := c.Tables[name]
		cols := make([]string, len(t.Columns))
		for i, col := range t.Columns {
			cols[i] = col.Name
		}
		fmt.Fprintf(&b, "%-24s rows=%-10.0f width=%-5.0f (%s)\n",
			name, t.Rows, t.RowBytes(), strings.Join(cols, ", "))
	}
	return b.String()
}
