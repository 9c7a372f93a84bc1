package engine

import (
	"fmt"
	"math"
)

// Columnar base storage: a Table can carry a frozen, column-chunked base
// image — the decoded form of a colfile snapshot — underneath its mutable
// heap tail. Row positions are global: positions [0, base.Rows()) live in
// the chunks, positions from base.Rows() up in the tail. Both halves are
// column-major — the base as typed chunks, the tail as one []Value per
// column — so a cell read indexes one column slice and no row is ever
// materialized on the read path. Scans gather chunk storage straight
// into Vectors, inserts append to each column of the tail, and
// tombstones work on global positions. A table with no base behaves
// byte-for-byte as the pure heap table does.
//
// The base also carries its encoded size, so the IO counters charge what
// a scan of the persistent image actually reads — encoded chunk bytes —
// rather than the catalog's estimated row width.

// ColumnChunk is one decoded column chunk of up to BatchSize rows:
// typed storage (int64 or string) plus a null bitmap. At most one of Ints
// and Strs is non-nil; both nil means every row in the chunk is NULL.
type ColumnChunk struct {
	// N is the number of rows in the chunk (full chunks have BatchSize;
	// only a column's last chunk may be shorter).
	N int
	// Nulls is the null bitmap (bit set = NULL); nil when no row is NULL.
	Nulls []uint64
	Ints  []int64
	Strs  []string
}

// IsNull reports whether row i of the chunk is NULL.
func (c *ColumnChunk) IsNull(i int) bool {
	return c.Nulls != nil && c.Nulls[i>>6]&(1<<(i&63)) != 0
}

// Value reboxes row i of the chunk.
func (c *ColumnChunk) Value(i int) Value {
	switch {
	case c.IsNull(i):
		return Null
	case c.Ints != nil:
		return Value{Kind: IntValue, Int: c.Ints[i]}
	case c.Strs != nil:
		return Value{Kind: StrValue, Str: c.Strs[i]}
	default:
		return Null
	}
}

// BuildColumnChunks packs a column's values into chunks of BatchSize
// rows, each stored as the kind of its non-NULL values, which must be one
// kind, as a table column's are (see Table.Insert).
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
	for i, v := range vals {
		if v.Kind == NullValue {
			if c.Nulls == nil {
				c.Nulls = make([]uint64, (len(vals)+63)/64)
			}
			c.Nulls[i>>6] |= 1 << (i & 63)
		} else {
			kind = v.Kind
		}
	}
	switch kind {
	case IntValue:
		c.Ints = make([]int64, len(vals))
		for i, v := range vals {
			c.Ints[i] = v.Int
		}
	case StrValue:
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
	// hashes[ci][pos] is the key hash of the base's cell at (pos, ci) when
	// it is a string (see Table.keyCell), 0 otherwise; nil for a column
	// with no string. It is computed here, per process, and never
	// persisted: the colfile image holds the cells alone.
	hashes [][]uint64
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
	b := &ColumnBase{rows: rows, cols: cols, hashes: make([][]uint64, len(cols)), encodedBytes: encodedBytes}
	for ci, chunks := range cols {
		b.hashes[ci] = chunkHashes(chunks, rows)
	}
	if rows > 0 {
		// Whole bytes per row: integer-valued charges keep counter
		// accumulation exact, so a counter delta does not depend on the
		// order its charges are added in.
		b.rowBytes = math.Round(encodedBytes / float64(rows))
	}
	return b, nil
}

// chunkHashes returns the key hashes of a column's string cells, at
// their positions among its rows, or nil when the column holds none.
func chunkHashes(chunks []ColumnChunk, rows int) []uint64 {
	var hs []uint64
	for k := range chunks {
		c := &chunks[k]
		for i := 0; i < c.N; i++ {
			if v := c.Value(i); v.Kind == StrValue {
				if hs == nil {
					hs = make([]uint64, rows)
				}
				hs[k*BatchSize+i] = strHash(v.Str)
			}
		}
	}
	return hs
}

func checkChunkStorage(c *ColumnChunk) error {
	if c.Nulls != nil && len(c.Nulls) != (c.N+63)/64 {
		return fmt.Errorf("null bitmap has %d words for %d rows", len(c.Nulls), c.N)
	}
	if c.Ints != nil && c.Strs != nil {
		return fmt.Errorf("chunk has more than one storage encoding")
	}
	for _, n := range []int{len(c.Ints), len(c.Strs)} {
		if n > 0 && n != c.N {
			return fmt.Errorf("storage has %d values for %d rows", n, c.N)
		}
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
// over the base rows. A chunk stored as the other kind than its column's
// (see columnKind) is refused, as Insert refuses such a cell. A nil base
// clears back to pure heap storage.
func (t *Table) SetColumnBase(b *ColumnBase) error {
	if t.heapN != 0 || len(t.dead) != 0 {
		return fmt.Errorf("engine: %s: column base requires an empty table", t.Def.Name)
	}
	if b != nil {
		if len(b.cols) != len(t.Def.Columns) {
			return fmt.Errorf("engine: %s: base has %d columns, table has %d",
				t.Def.Name, len(b.cols), len(t.Def.Columns))
		}
		for ci, chunks := range b.cols {
			for k, c := range chunks {
				if c.Ints != nil && t.kind(ci) != IntValue || c.Strs != nil && t.kind(ci) != StrValue {
					col := t.Def.Columns[ci]
					return fmt.Errorf("engine: %s.%s: chunk %d is not stored as %s", t.Def.Name, col.Name, k, col.Type)
				}
			}
		}
	}
	t.base, t.baseN = b, 0
	if b != nil {
		t.baseN = b.rows
	}
	for _, ix := range t.indexes {
		ix.rebuild(t)
	}
	return nil
}

// ColumnBase returns the table's frozen base image, nil for pure heap
// tables.
func (t *Table) ColumnBase() *ColumnBase { return t.base }

// NumRows returns the total row count, tombstoned included: frozen base
// rows plus heap tail.
func (t *Table) NumRows() int { return t.baseN + t.heapN }

// Cell reads one cell by global position without materializing the row.
func (t *Table) Cell(pos, ci int) Value {
	if pos < t.baseN {
		return t.base.value(pos, ci)
	}
	return t.heap[ci][pos-t.baseN]
}

// keyCell reads one cell by global position, as Cell does, together with
// its stored key hash when it is a string (0 otherwise): the hash a join
// key's string part takes, computed once when the cell was written, so
// hashing a key never reads a string's bytes.
func (t *Table) keyCell(pos, ci int) (Value, uint64) {
	if pos < t.baseN {
		v := t.base.value(pos, ci)
		if v.Kind != StrValue {
			return v, 0
		}
		return v, t.base.hashes[ci][pos]
	}
	i := pos - t.baseN
	v := t.heap[ci][i]
	if v.Kind != StrValue {
		return v, 0
	}
	return v, t.heapHash[ci][i]
}

// Row returns a fresh copy of the tuple at a global position; writing to
// it leaves the table unchanged (use Cell when only one column is
// needed).
func (t *Table) Row(pos int) Row {
	r := make(Row, len(t.Def.Columns))
	for ci := range r {
		r[ci] = t.Cell(pos, ci)
	}
	return r
}

// scanBytes is the IO a full scan reads: the base's encoded image plus
// the heap tail at the catalog's estimated row width. Without a base
// this is exactly the historical heap rows × RowBytes().
func (t *Table) scanBytes() float64 {
	heap := float64(t.heapN) * t.Def.RowBytes()
	if t.base == nil {
		return heap
	}
	return t.base.encodedBytes + heap
}

// probeRowBytes is the IO one probed row costs: the average encoded row
// width for base rows, the catalog width heapBytes — t.Def.RowBytes(),
// summed once by the caller for all the rows it probes — for heap rows.
func (t *Table) probeRowBytes(pos int, heapBytes float64) float64 {
	if pos < t.baseN {
		return t.base.rowBytes
	}
	return heapBytes
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
