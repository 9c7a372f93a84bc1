package engine

import (
	"fmt"
	"math"
)

// Columnar base storage: a Table can carry a frozen, column-chunked base
// image — the decoded form of a colfile snapshot — underneath its mutable
// heap rows. Row positions are global: positions [0, base.Rows()) live in
// the chunks, positions from base.Rows() up index t.Rows. Scans gather
// chunk storage straight into Vectors (no Row materialization), inserts
// append to the heap tail exactly as before, and tombstones work on
// global positions. A table with no base behaves byte-for-byte as the
// pure heap table did.
//
// The base also carries its encoded size, so the IO counters charge what
// a scan of the persistent image actually reads — encoded chunk bytes —
// rather than the catalog's estimated row width. Both executors use the
// same accessors, so their Counters stay bit-identical (invariant: the
// executor mode is invisible).

// ColumnChunk is one decoded column chunk of up to BatchSize rows:
// typed storage (int64 or string) plus a null bitmap, with a boxed
// fallback for columns that mix kinds. At most one of Ints, Strs, Vals
// is non-nil; all nil means every row in the chunk is NULL.
type ColumnChunk struct {
	// N is the number of rows in the chunk (full chunks have BatchSize;
	// only a column's last chunk may be shorter).
	N int
	// Nulls is the null bitmap (bit set = NULL); nil when no row is NULL.
	Nulls []uint64
	Ints  []int64
	Strs  []string
	Vals  []Value
}

// IsNull reports whether row i of the chunk is NULL.
func (c *ColumnChunk) IsNull(i int) bool {
	return c.Nulls != nil && c.Nulls[i>>6]&(1<<(i&63)) != 0
}

// Value reboxes row i of the chunk.
func (c *ColumnChunk) Value(i int) Value {
	if c.IsNull(i) {
		return Null
	}
	switch {
	case c.Ints != nil:
		return Value{Kind: IntValue, Int: c.Ints[i]}
	case c.Strs != nil:
		return Value{Kind: StrValue, Str: c.Strs[i]}
	case c.Vals != nil:
		return c.Vals[i]
	default:
		return Null
	}
}

// BuildColumnChunks packs a column's values into chunks of BatchSize
// rows, detecting the typed encoding per chunk.
func BuildColumnChunks(vals []Value) []ColumnChunk {
	var chunks []ColumnChunk
	for base := 0; base < len(vals); base += BatchSize {
		end := min(base+BatchSize, len(vals))
		chunks = append(chunks, buildChunk(vals[base:end]))
	}
	return chunks
}

func buildChunk(vals []Value) ColumnChunk {
	c := ColumnChunk{N: len(vals)}
	kind := NullValue
	mixed := false
	nulls := 0
	for _, v := range vals {
		switch {
		case v.Kind == NullValue:
			nulls++
		case kind == NullValue:
			kind = v.Kind
		case v.Kind != kind:
			mixed = true
		}
	}
	if nulls > 0 {
		c.Nulls = make([]uint64, (len(vals)+63)/64)
		for i, v := range vals {
			if v.Kind == NullValue {
				c.Nulls[i>>6] |= 1 << (i & 63)
			}
		}
	}
	switch {
	case mixed:
		c.Vals = make([]Value, len(vals))
		copy(c.Vals, vals)
	case kind == IntValue:
		c.Ints = make([]int64, len(vals))
		for i, v := range vals {
			c.Ints[i] = v.Int
		}
	case kind == StrValue:
		c.Strs = make([]string, len(vals))
		for i, v := range vals {
			c.Strs[i] = v.Str
		}
	}
	return c
}

// ColumnBase is the frozen columnar image under a table: one chunk
// sequence per column, all columns the same length.
type ColumnBase struct {
	rows int
	cols [][]ColumnChunk
	// encodedBytes is the on-disk size of the chunk payloads this base
	// was decoded from; scans charge it as BytesRead.
	encodedBytes float64
	// rowBytes is the average encoded row width (encodedBytes / rows),
	// charged per probed base row.
	rowBytes float64
}

// NewColumnBase validates and freezes a chunked column set:
// every column must hold the same number of rows and chunk uniformly
// (full BatchSize chunks, short chunk only last). encodedBytes is the
// on-disk size of the image, used for IO accounting; pass the in-memory
// estimate if the chunks never lived on disk.
func NewColumnBase(cols [][]ColumnChunk, encodedBytes float64) (*ColumnBase, error) {
	rows := -1
	for ci, chunks := range cols {
		n := 0
		for k := range chunks {
			c := &chunks[k]
			if c.N <= 0 || c.N > BatchSize {
				return nil, fmt.Errorf("engine: column %d chunk %d has %d rows (batch size %d)", ci, k, c.N, BatchSize)
			}
			if c.N != BatchSize && k != len(chunks)-1 {
				return nil, fmt.Errorf("engine: column %d chunk %d is short (%d rows) but not last", ci, k, c.N)
			}
			if err := checkChunkStorage(c); err != nil {
				return nil, fmt.Errorf("engine: column %d chunk %d: %w", ci, k, err)
			}
			n += c.N
		}
		if rows < 0 {
			rows = n
		} else if n != rows {
			return nil, fmt.Errorf("engine: column %d has %d rows, column 0 has %d", ci, n, rows)
		}
	}
	if rows < 0 {
		rows = 0
	}
	b := &ColumnBase{rows: rows, cols: cols, encodedBytes: encodedBytes}
	if rows > 0 {
		// Whole bytes per row: integer-valued charges keep counter
		// accumulation exact, so the batch and row executors stay
		// bit-identical no matter what order they add in.
		b.rowBytes = math.Round(encodedBytes / float64(rows))
	}
	return b, nil
}

func checkChunkStorage(c *ColumnChunk) error {
	if c.Nulls != nil && len(c.Nulls) != (c.N+63)/64 {
		return fmt.Errorf("null bitmap has %d words for %d rows", len(c.Nulls), c.N)
	}
	stores := 0
	for _, n := range []int{len(c.Ints), len(c.Strs), len(c.Vals)} {
		if n > 0 {
			stores++
			if n != c.N {
				return fmt.Errorf("storage has %d values for %d rows", n, c.N)
			}
		}
	}
	if stores > 1 {
		return fmt.Errorf("chunk has more than one storage encoding")
	}
	return nil
}

// Rows returns the number of rows in the base image.
func (b *ColumnBase) Rows() int { return b.rows }

// EncodedBytes returns the on-disk size the base was decoded from.
func (b *ColumnBase) EncodedBytes() float64 { return b.encodedBytes }

// Columns returns the chunk sequences (shared, callers must not mutate).
func (b *ColumnBase) Columns() [][]ColumnChunk { return b.cols }

// value reads one cell of the base.
func (b *ColumnBase) value(pos, ci int) Value {
	ch := &b.cols[ci][pos/BatchSize]
	return ch.Value(pos % BatchSize)
}

// SetColumnBase installs a frozen columnar base under an empty table
// (no heap rows, no tombstones) and rebuilds the table's hash indexes
// over the base rows. A nil base clears back to pure heap storage.
func (t *Table) SetColumnBase(b *ColumnBase) error {
	if len(t.Rows) != 0 || len(t.dead) != 0 {
		return fmt.Errorf("engine: %s: column base requires an empty table", t.Def.Name)
	}
	if b != nil && len(b.cols) != len(t.Def.Columns) {
		return fmt.Errorf("engine: %s: base has %d columns, table has %d",
			t.Def.Name, len(b.cols), len(t.Def.Columns))
	}
	t.base = b
	for _, ix := range t.indexes {
		ix.rebuild(t)
	}
	return nil
}

// ColumnBase returns the table's frozen base image, nil for pure heap
// tables.
func (t *Table) ColumnBase() *ColumnBase { return t.base }

// baseRows is the number of rows stored in the frozen base (0 without
// one); global position p maps to heap row t.Rows[p-baseRows()] when
// p >= baseRows().
func (t *Table) baseRows() int {
	if t.base == nil {
		return 0
	}
	return t.base.rows
}

// NumRows returns the total row count, tombstoned included: frozen base
// rows plus heap tail.
func (t *Table) NumRows() int { return t.baseRows() + len(t.Rows) }

// Cell reads one cell by global position without materializing the row.
func (t *Table) Cell(pos, ci int) Value {
	if br := t.baseRows(); pos < br {
		return t.base.value(pos, ci)
	} else {
		return t.Rows[pos-br][ci]
	}
}

// Row returns the tuple at a global position. Heap rows are returned
// without copying; base rows are materialized (use Cell when only one
// column is needed).
func (t *Table) Row(pos int) Row {
	br := t.baseRows()
	if pos >= br {
		return t.Rows[pos-br]
	}
	r := make(Row, len(t.Def.Columns))
	for ci := range r {
		r[ci] = t.base.value(pos, ci)
	}
	return r
}

// scanBytes is the IO a full scan reads: the base's encoded image plus
// the heap tail at the catalog's estimated row width. Without a base
// this is exactly the historical len(Rows)*RowBytes().
func (t *Table) scanBytes() float64 {
	heap := float64(len(t.Rows)) * t.Def.RowBytes()
	if t.base == nil {
		return heap
	}
	return t.base.encodedBytes + heap
}

// probeRowBytes is the IO one probed row costs: the average encoded row
// width for base rows, the catalog width for heap rows.
func (t *Table) probeRowBytes(pos int) float64 {
	if pos < t.baseRows() {
		return t.base.rowBytes
	}
	return t.Def.RowBytes()
}

// SnapshotColumns compacts the table's live rows (tombstones dropped,
// base and heap merged) into fresh column chunks, one sequence per
// column in definition order. This is the image a snapshot persists.
func (t *Table) SnapshotColumns() [][]ColumnChunk {
	n := t.NumRows()
	live := make([]int, 0, t.LiveRows())
	for pos := 0; pos < n; pos++ {
		if t.Alive(pos) {
			live = append(live, pos)
		}
	}
	cols := make([][]ColumnChunk, len(t.Def.Columns))
	vals := make([]Value, len(live))
	for ci := range cols {
		for i, pos := range live {
			vals[i] = t.Cell(pos, ci)
		}
		cols[ci] = BuildColumnChunks(vals)
	}
	return cols
}
