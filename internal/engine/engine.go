// Package engine is an instrumented in-memory relational execution
// substrate: heap tables over the catalogs produced by the fixed mapping,
// hash indexes on key and foreign-key columns and on the columns the
// catalog's physical design flags, and an iterator executor for the SPJ
// blocks the XQuery translator emits.
//
// The paper validated its cost model against Microsoft SQL-Server 6.5;
// this engine plays that role here (see DESIGN.md): it counts the same
// quantities the cost model predicts — bytes read, probes, tuples
// processed — so estimates and measurements can be compared.
//
// A Database supports concurrent query execution against stable data:
// Execute/ExecuteContext from multiple goroutines are safe with each
// other (counters accrue execution-locally and fold into Stats under an
// internal mutex), but callers must serialize mutations — inserts,
// tombstones, executor-mode flips — against in-flight queries. The Store
// facade does exactly that with a readers-writer lock.
package engine

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"legodb/internal/relational"
)

// Value is a nullable scalar cell. The zero value is NULL. Values are
// comparable, so they key hash indexes directly.
type Value struct {
	Kind ValueKind
	Int  int64
	Str  string
}

// ValueKind discriminates Value contents.
type ValueKind int

// Value kinds.
const (
	NullValue ValueKind = iota
	IntValue
	StrValue
)

// IntVal makes an integer value.
func IntVal(v int64) Value { return Value{Kind: IntValue, Int: v} }

// StrVal makes a string value.
func StrVal(s string) Value { return Value{Kind: StrValue, Str: s} }

// Null is the NULL value.
var Null = Value{}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == NullValue }

func (v Value) String() string {
	switch v.Kind {
	case IntValue:
		return strconv.FormatInt(v.Int, 10)
	case StrValue:
		return v.Str
	default:
		return "NULL"
	}
}

// Compare orders two values: NULL sorts first, integers before strings.
func Compare(a, b Value) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	switch a.Kind {
	case IntValue:
		switch {
		case a.Int < b.Int:
			return -1
		case a.Int > b.Int:
			return 1
		}
		return 0
	case StrValue:
		return strings.Compare(a.Str, b.Str)
	default:
		return 0
	}
}

// Row is one tuple.
type Row []Value

// Table is a heap relation with hash indexes on its key and foreign-key
// columns and on every column the catalog flags with a secondary index,
// optionally frozen over a columnar base image (see colstore.go). Row
// positions are global — base rows first, then the heap tail — and
// deletes are tombstones: positions stay stable, dead rows are skipped
// by scans, probes and snapshots. Executors, the publisher and the
// snapshot writer read cells through NumRows/Cell, so both storage
// layouts serve transparently.
type Table struct {
	Def *relational.Table
	// heap is the mutable tail, column-major: heap[ci][i] is column ci of
	// global position baseN+i, and every column holds heapN values.
	heap  [][]Value
	heapN int
	// heapHash[ci][i] is the key hash of heap[ci][i] when that cell is a
	// string (see keyCell), 0 otherwise; nil for a column that has held
	// no string.
	heapHash [][]uint64
	// baseN is base.Rows(), 0 without a base.
	baseN  int
	base   *ColumnBase
	colIdx map[string]int
	// indexes holds one hash index per maintained column (see
	// relational.Column.Maintained), each with its column position
	// resolved once so that Insert pays no name lookups.
	indexes []*hashIndex
	nextID  int64
	dead    map[int]bool
}

// hashIndex maps the values of one column to the global positions of the
// rows holding them, ascending, tombstoned rows included.
type hashIndex struct {
	col string
	ci  int
	m   map[Value][]int
}

func (ix *hashIndex) add(v Value, pos int) { ix.m[v] = append(ix.m[v], pos) }

// columnKind is the one kind a column's non-NULL cells have: an integer
// for an INT column, a string for a CHAR or VARCHAR one.
func columnKind(c *relational.Column) ValueKind {
	if c.Type == relational.IntCol {
		return IntValue
	}
	return StrValue
}

// kind is the kind of column ci's cells (see columnKind).
func (t *Table) kind(ci int) ValueKind { return columnKind(t.Def.Columns[ci]) }

// NewTable builds an empty heap table for a catalog relation.
func NewTable(def *relational.Table) *Table {
	t := &Table{
		Def:      def,
		heap:     make([][]Value, len(def.Columns)),
		heapHash: make([][]uint64, len(def.Columns)),
		colIdx:   make(map[string]int, len(def.Columns)),
		nextID:   1,
	}
	for i, c := range def.Columns {
		t.colIdx[c.Name] = i
		if c.Maintained() {
			t.indexes = append(t.indexes, &hashIndex{col: c.Name, ci: i, m: make(map[Value][]int)})
		}
	}
	return t
}

// ColumnIndex returns the position of a column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// NextID allocates a fresh surrogate key.
func (t *Table) NextID() int64 {
	id := t.nextID
	t.nextID++
	return id
}

// PeekNextID returns the next key without allocating it (used by
// snapshots).
func (t *Table) PeekNextID() int64 { return t.nextID }

// SetNextID restores the key allocator (used when loading snapshots).
func (t *Table) SetNextID(id int64) {
	if id > t.nextID {
		t.nextID = id
	}
}

// Insert appends a row (len must equal the column count) to each column
// of the heap tail, with the key hash of each string cell beside it, and
// maintains indexes. A non-NULL cell must have its column's kind (see
// columnKind): a row with one that does not is refused whole. The table
// keeps no reference to r.
func (t *Table) Insert(r Row) error {
	if len(r) != len(t.Def.Columns) {
		return fmt.Errorf("engine: %s: row has %d values, table has %d columns",
			t.Def.Name, len(r), len(t.Def.Columns))
	}
	for ci, v := range r {
		if v.Kind != NullValue && v.Kind != t.kind(ci) {
			c, what := t.Def.Columns[ci], "integer"
			if v.Kind == StrValue {
				what = "string"
			}
			return fmt.Errorf("engine: %s.%s: %s column refuses the %s %q", t.Def.Name, c.Name, c.Type, what, v)
		}
	}
	pos := t.NumRows()
	for ci, v := range r {
		t.heap[ci] = appendDoubling(t.heap[ci], v)
		if v.Kind == StrValue && t.heapHash[ci] == nil {
			t.heapHash[ci] = make([]uint64, t.heapN, cap(t.heap[ci]))
		}
		if hs := t.heapHash[ci]; hs != nil {
			var h uint64
			if v.Kind == StrValue {
				h = strHash(v.Str)
			}
			t.heapHash[ci] = appendDoubling(hs, h)
		}
	}
	t.heapN++
	for _, ix := range t.indexes {
		ix.add(r[ix.ci], pos)
	}
	return nil
}

// appendDoubling appends v to a heap column, doubling its capacity when
// full: append's growth for large slices (1.25×) would copy a loaded
// column several times over.
func appendDoubling[T any](col []T, v T) []T {
	if len(col) == cap(col) {
		col = append(make([]T, 0, max(2*cap(col), 16)), col...)
	}
	return append(col, v)
}

// index returns the hash index on a column, nil if there is none.
func (t *Table) index(col string) *hashIndex {
	for _, ix := range t.indexes {
		if ix.col == col {
			return ix
		}
	}
	return nil
}

// accessIndex returns the index through which query plans may enter the
// table by col — the column must be an access path of the physical
// design (relational.Column.AccessPath), not merely maintained for the
// publisher — or nil when plans must scan.
func (t *Table) accessIndex(col string) *hashIndex {
	if c := t.Def.Column(col); c == nil || !c.AccessPath() {
		return nil
	}
	return t.index(col)
}

// buildIndex builds a hash index on a column in one ascending pass over
// the base image and the heap tail; Insert maintains it from then on. A
// column that already has one is left alone.
func (t *Table) buildIndex(col string) error {
	ci := t.ColumnIndex(col)
	if ci < 0 {
		return fmt.Errorf("engine: %s: no column %s to index", t.Def.Name, col)
	}
	if t.index(col) != nil {
		return nil
	}
	ix := &hashIndex{col: col, ci: ci}
	ix.rebuild(t)
	t.indexes = append(t.indexes, ix)
	return nil
}

// rebuild empties the index and refills it from every row of t.
func (ix *hashIndex) rebuild(t *Table) {
	ix.m = make(map[Value][]int)
	for pos, n := 0, t.NumRows(); pos < n; pos++ {
		ix.add(t.Cell(pos, ix.ci), pos)
	}
}

// dropIndex removes a secondary index. The key and foreign-key indexes
// stay whatever the design says: the shredder and the publisher find
// rows through them.
func (t *Table) dropIndex(col string) {
	if c := t.Def.Column(col); c != nil && (c.Key || c.FKRef != "") {
		return
	}
	for i, ix := range t.indexes {
		if ix.col == col {
			t.indexes = append(t.indexes[:i], t.indexes[i+1:]...)
			return
		}
	}
}

// Lookup returns the positions of live rows whose column equals v, using
// the index when available (second result true) and nil otherwise. The
// returned slice aliases the index when no listed position is dead —
// the hot case on probe-heavy plans — so callers must not mutate it; a
// fresh slice is allocated only when tombstones actually filter.
func (t *Table) Lookup(col string, v Value) ([]int, bool) {
	ix := t.index(col)
	if ix == nil {
		return nil, false
	}
	return t.lookup(ix, v), true
}

// lookup is Lookup through an index already resolved.
func (t *Table) lookup(ix *hashIndex, v Value) []int {
	positions := ix.m[v]
	if len(t.dead) == 0 {
		return positions
	}
	dead := 0
	for _, p := range positions {
		if t.dead[p] {
			dead++
		}
	}
	if dead == 0 {
		return positions
	}
	live := make([]int, 0, len(positions)-dead)
	for _, p := range positions {
		if !t.dead[p] {
			live = append(live, p)
		}
	}
	return live
}

// Alive reports whether the row at pos has not been deleted.
func (t *Table) Alive(pos int) bool { return !t.dead[pos] }

// MarkDeleted tombstones the row at pos (idempotent).
func (t *Table) MarkDeleted(pos int) {
	if pos < 0 || pos >= t.NumRows() {
		return
	}
	if t.dead == nil {
		t.dead = make(map[int]bool)
	}
	t.dead[pos] = true
}

// LiveRows counts rows that are not tombstoned.
func (t *Table) LiveRows() int { return t.NumRows() - len(t.dead) }

// Counters accumulates the execution measurements compared against the
// optimizer's estimates.
type Counters struct {
	BytesRead  float64
	TuplesRead int64
	Probes     int64
	Scans      int64
	TuplesOut  int64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.BytesRead += other.BytesRead
	c.TuplesRead += other.TuplesRead
	c.Probes += other.Probes
	c.Scans += other.Scans
	c.TuplesOut += other.TuplesOut
}

// Database is a set of tables instantiating one relational catalog.
type Database struct {
	Cat    *relational.Catalog
	Tables map[string]*Table
	// Stats counts work done by Execute calls. Executions accrue into a
	// local Counters and fold in once under statsMu; concurrent readers
	// should use Measured instead of the field.
	Stats Counters

	// design is the physical-design epoch: SetIndexes advances it, and a
	// Plan runs only under the epoch it was made in.
	design uint64

	statsMu sync.Mutex
}

// SetIndexes makes refs the database's secondary-index set: engine
// indexes are built and dropped to match, then the catalog's flags
// (which the planner and the optimizer read) follow, and the
// physical-design epoch advances, so every Plan made before it is no
// longer Current. It is the one way the access paths of a live database
// change; the caller serializes it against executions.
func (db *Database) SetIndexes(refs []relational.IndexRef) error {
	db.design++
	want := make(map[relational.IndexRef]bool, len(refs))
	for _, r := range refs {
		want[r] = true
		if err := db.Table(r.Table).buildIndex(r.Column); err != nil {
			return err
		}
	}
	for _, r := range db.Cat.Indexes() {
		if !want[r] {
			db.Table(r.Table).dropIndex(r.Column)
		}
	}
	db.Cat.SetIndexes(refs)
	return nil
}

// addStats folds one execution's counters into the database totals.
func (db *Database) addStats(c Counters) {
	db.statsMu.Lock()
	db.Stats.Add(c)
	db.statsMu.Unlock()
}

// Measured snapshots the accumulated execution counters; unlike reading
// Stats directly, it is safe against concurrent executions.
func (db *Database) Measured() Counters {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	return db.Stats
}

// NewDatabase creates empty tables for every relation in the catalog.
func NewDatabase(cat *relational.Catalog) *Database {
	db := &Database{Cat: cat, Tables: make(map[string]*Table, len(cat.Order))}
	for _, name := range cat.Order {
		db.Tables[name] = NewTable(cat.Tables[name])
	}
	return db
}

// Table returns the named table, or nil.
func (db *Database) Table(name string) *Table { return db.Tables[name] }

// RowCount sums live rows over all tables.
func (db *Database) RowCount() int {
	total := 0
	for _, t := range db.Tables {
		total += t.LiveRows()
	}
	return total
}

// String summarizes table sizes.
func (db *Database) String() string {
	var b strings.Builder
	for _, name := range db.Cat.Order {
		fmt.Fprintf(&b, "%-24s %8d rows\n", name, db.Tables[name].NumRows())
	}
	return b.String()
}
