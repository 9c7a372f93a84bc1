// Package colfile is the binary on-disk table format: a versioned,
// CRC32C-checksummed, column-chunked encoding of one relation whose
// on-disk unit is the engine's 1024-row columnar batch. A file (or a
// segment inside a store snapshot) is laid out as
//
//	header  magic "LGDBCOLF" (8) + version uint16            10 bytes
//	chunks  per-column chunk payloads, column-major order
//	footer  table metadata + chunk index (see below)
//	tail    footerLen uint64 + footerCRC uint32 + fileCRC uint32
//
// Each chunk payload is one column of ≤ BatchSize rows in a typed
// encoding — int64 words, length-prefixed strings, or all-NULL —
// preceded by a null bitmap. The footer indexes
// every chunk (column, row count, offset, size, CRC32C), so a reader
// verifies and decodes chunks straight into engine.ColumnChunk storage
// that engine.Table scans gather into Vectors without ever building
// rows. Integrity is checked outside-in: file CRC, then footer CRC,
// then per-chunk CRCs; any mismatch, truncation or implausible declared
// size is ErrCorrupt — the caller quarantines, never partially loads.
package colfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"legodb/internal/engine"
	"legodb/internal/fsio"
)

// Version is the current colfile format version.
const Version = 1

// magic identifies a colfile image ("LGDBCOLF").
var magic = [8]byte{'L', 'G', 'D', 'B', 'C', 'O', 'L', 'F'}

const (
	headerLen = 10
	tailLen   = 16
	// maxCols bounds the declared column count (catalog tables have
	// tens of columns; a footer claiming more is forged).
	maxCols = 1 << 12
	// maxRows bounds the declared row count.
	maxRows = 1 << 40
)

// Chunk payload encodings (first payload byte). Byte 3 was a tagged
// encoding for columns that mixed kinds; no column can since cells take
// their column's kind, and the decoder refuses it as an unknown encoding.
const (
	encAllNull = 0
	encInt     = 1
	encStr     = 2
)

// ErrCorrupt marks a file Decode rejected: bad magic or version,
// truncation, a checksum mismatch at any level, or an index that does
// not describe the bytes present. Callers quarantine on errors.Is.
var ErrCorrupt = errors.New("colfile: corrupt table file")

// Table is one relation's decoded image.
type Table struct {
	Name    string
	Columns []string
	Rows    int
	NextID  int64
	// Cols holds the decoded chunks, one sequence per column in
	// definition order, directly installable as an engine.ColumnBase.
	Cols [][]engine.ColumnChunk
	// DataBytes is the encoded size of all chunk payloads — the IO a
	// scan of this image reads.
	DataBytes int64
}

type chunkEntry struct {
	col  int
	n    int
	off  uint64
	size uint64
	crc  uint32
}

// Encode serializes a table image.
func Encode(t *Table) ([]byte, error) {
	if len(t.Cols) != len(t.Columns) {
		return nil, fmt.Errorf("colfile: %s: %d chunk columns, %d names", t.Name, len(t.Cols), len(t.Columns))
	}
	if len(t.Columns) > maxCols {
		return nil, fmt.Errorf("colfile: %s: %d columns exceeds limit %d", t.Name, len(t.Columns), maxCols)
	}
	var buf bytes.Buffer
	buf.Write(magic[:])
	le16(&buf, Version)

	var entries []chunkEntry
	dataBytes := int64(0)
	for ci, chunks := range t.Cols {
		rows := 0
		for k := range chunks {
			ch := &chunks[k]
			off := uint64(buf.Len())
			payload := encodeChunk(ch)
			buf.Write(payload)
			entries = append(entries, chunkEntry{
				col: ci, n: ch.N, off: off,
				size: uint64(len(payload)),
				crc:  fsio.Checksum(payload),
			})
			dataBytes += int64(len(payload))
			rows += ch.N
		}
		if rows != t.Rows {
			return nil, fmt.Errorf("colfile: %s: column %d holds %d rows, table declares %d", t.Name, ci, rows, t.Rows)
		}
	}
	t.DataBytes = dataBytes

	var footer bytes.Buffer
	writeString16(&footer, t.Name)
	le64(&footer, uint64(t.Rows))
	le64(&footer, uint64(t.NextID))
	le16(&footer, uint16(len(t.Columns)))
	for _, c := range t.Columns {
		writeString16(&footer, c)
	}
	le32(&footer, uint32(len(entries)))
	for _, e := range entries {
		le16(&footer, uint16(e.col))
		le32(&footer, uint32(e.n))
		le64(&footer, e.off)
		le64(&footer, e.size)
		le32(&footer, e.crc)
	}
	fb := footer.Bytes()
	buf.Write(fb)
	le64(&buf, uint64(len(fb)))
	le32(&buf, fsio.Checksum(fb))
	le32(&buf, fsio.Checksum(buf.Bytes()))
	return buf.Bytes(), nil
}

// encodeChunk serializes one chunk payload: encoding byte, null bitmap
// (absent for all-NULL chunks), then the typed values.
func encodeChunk(ch *engine.ColumnChunk) []byte {
	var b bytes.Buffer
	nulls := func() {
		nw := (ch.N + 63) / 64
		bitmap := make([]uint64, nw)
		copy(bitmap, ch.Nulls)
		for _, w := range bitmap {
			le64(&b, w)
		}
	}
	switch {
	case ch.Ints != nil:
		b.WriteByte(encInt)
		nulls()
		for _, v := range ch.Ints {
			le64(&b, uint64(v))
		}
	case ch.Strs != nil:
		b.WriteByte(encStr)
		nulls()
		end := uint32(0)
		for _, s := range ch.Strs {
			end += uint32(len(s))
			le32(&b, end)
		}
		for _, s := range ch.Strs {
			b.WriteString(s)
		}
	default:
		b.WriteByte(encAllNull)
	}
	return b.Bytes()
}

// Decode parses and verifies a table image. Every returned error on a
// malformed input wraps ErrCorrupt.
func Decode(data []byte) (*Table, error) {
	if len(data) < headerLen+tailLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than frame", ErrCorrupt, len(data))
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(data[8:10]); v != Version {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, v, Version)
	}
	// Outside-in: whole-file checksum first.
	fileCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := fsio.Checksum(data[:len(data)-4]); got != fileCRC {
		return nil, fmt.Errorf("%w: file checksum mismatch (%08x != %08x)", ErrCorrupt, got, fileCRC)
	}
	footerLen := binary.LittleEndian.Uint64(data[len(data)-tailLen : len(data)-8])
	footerCRC := binary.LittleEndian.Uint32(data[len(data)-8 : len(data)-4])
	if footerLen > uint64(len(data)-headerLen-tailLen) {
		return nil, fmt.Errorf("%w: footer length %d exceeds file", ErrCorrupt, footerLen)
	}
	footerStart := uint64(len(data)-tailLen) - footerLen
	footer := data[footerStart:uint64(len(data)-tailLen)]
	if got := fsio.Checksum(footer); got != footerCRC {
		return nil, fmt.Errorf("%w: footer checksum mismatch (%08x != %08x)", ErrCorrupt, got, footerCRC)
	}

	r := &reader{buf: footer}
	t := &Table{}
	t.Name = r.string16()
	rows := r.u64()
	nextID := r.u64()
	ncols := int(r.u16())
	if rows > maxRows {
		return nil, fmt.Errorf("%w: %d rows exceeds limit", ErrCorrupt, rows)
	}
	if ncols > maxCols {
		return nil, fmt.Errorf("%w: %d columns exceeds limit %d", ErrCorrupt, ncols, maxCols)
	}
	if r.err {
		return nil, fmt.Errorf("%w: truncated footer", ErrCorrupt)
	}
	t.Rows = int(rows)
	t.NextID = int64(nextID)
	t.Columns = make([]string, ncols)
	for i := range t.Columns {
		t.Columns[i] = r.string16()
	}
	nchunks := int(r.u32())
	if r.err {
		return nil, fmt.Errorf("%w: truncated footer", ErrCorrupt)
	}
	const entryLen = 2 + 4 + 8 + 8 + 4
	if nchunks > ncols*(int(rows)/engine.BatchSize+1) || nchunks*entryLen > len(r.buf) {
		return nil, fmt.Errorf("%w: %d chunks is implausible for %d×%d", ErrCorrupt, nchunks, ncols, rows)
	}
	entries := make([]chunkEntry, nchunks)
	for i := range entries {
		entries[i] = chunkEntry{
			col:  int(r.u16()),
			n:    int(r.u32()),
			off:  r.u64(),
			size: r.u64(),
			crc:  r.u32(),
		}
	}
	if r.err {
		return nil, fmt.Errorf("%w: truncated footer", ErrCorrupt)
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing footer bytes", ErrCorrupt, len(r.buf))
	}

	t.Cols = make([][]engine.ColumnChunk, ncols)
	colRows := make([]int, ncols)
	for i := range entries {
		e := &entries[i]
		if e.col >= ncols {
			return nil, fmt.Errorf("%w: chunk %d indexes column %d of %d", ErrCorrupt, i, e.col, ncols)
		}
		if e.n <= 0 || e.n > engine.BatchSize {
			return nil, fmt.Errorf("%w: chunk %d declares %d rows (batch size %d)", ErrCorrupt, i, e.n, engine.BatchSize)
		}
		if e.off < headerLen || e.off > footerStart || e.size > footerStart-e.off {
			return nil, fmt.Errorf("%w: chunk %d at [%d,+%d) escapes the data section", ErrCorrupt, i, e.off, e.size)
		}
		payload := data[e.off : e.off+e.size]
		if got := fsio.Checksum(payload); got != e.crc {
			return nil, fmt.Errorf("%w: chunk %d checksum mismatch (%08x != %08x)", ErrCorrupt, i, got, e.crc)
		}
		ch, err := decodeChunk(payload, e.n)
		if err != nil {
			return nil, err
		}
		t.Cols[e.col] = append(t.Cols[e.col], ch)
		colRows[e.col] += e.n
		t.DataBytes += int64(e.size)
	}
	for ci, n := range colRows {
		if n != t.Rows {
			return nil, fmt.Errorf("%w: column %d holds %d rows, table declares %d", ErrCorrupt, ci, n, t.Rows)
		}
		// Chunking must be uniform — full BatchSize chunks, a short one
		// only last — so global positions map to chunk/offset by
		// division.
		for k, ch := range t.Cols[ci] {
			if ch.N != engine.BatchSize && k != len(t.Cols[ci])-1 {
				return nil, fmt.Errorf("%w: column %d chunk %d is short (%d rows) but not last", ErrCorrupt, ci, k, ch.N)
			}
		}
	}
	return t, nil
}

// decodeChunk parses one verified chunk payload into typed storage.
func decodeChunk(payload []byte, n int) (engine.ColumnChunk, error) {
	ch := engine.ColumnChunk{N: n}
	if len(payload) < 1 {
		return ch, fmt.Errorf("%w: empty chunk payload", ErrCorrupt)
	}
	enc := payload[0]
	body := payload[1:]
	if enc == encAllNull {
		if len(body) != 0 {
			return ch, fmt.Errorf("%w: all-null chunk carries %d payload bytes", ErrCorrupt, len(body))
		}
		ch.Nulls = make([]uint64, (n+63)/64)
		for i := 0; i < n; i++ {
			ch.Nulls[i>>6] |= 1 << (i & 63)
		}
		return ch, nil
	}
	nw := (n + 63) / 64
	if len(body) < nw*8 {
		return ch, fmt.Errorf("%w: chunk truncated before null bitmap", ErrCorrupt)
	}
	bitmap := make([]uint64, nw)
	anyNull := false
	for i := range bitmap {
		bitmap[i] = binary.LittleEndian.Uint64(body[i*8:])
		anyNull = anyNull || bitmap[i] != 0
	}
	// Bits past the last row must be clear, or the same logical chunk
	// would admit multiple encodings.
	if n%64 != 0 && bitmap[nw-1]>>(n%64) != 0 {
		return ch, fmt.Errorf("%w: null bitmap sets bits past row %d", ErrCorrupt, n)
	}
	if anyNull {
		ch.Nulls = bitmap
	}
	body = body[nw*8:]

	switch enc {
	case encInt:
		if len(body) != n*8 {
			return ch, fmt.Errorf("%w: int chunk has %d value bytes for %d rows", ErrCorrupt, len(body), n)
		}
		ch.Ints = make([]int64, n)
		for i := range ch.Ints {
			ch.Ints[i] = int64(binary.LittleEndian.Uint64(body[i*8:]))
		}
	case encStr:
		if len(body) < n*4 {
			return ch, fmt.Errorf("%w: string chunk truncated before offsets", ErrCorrupt)
		}
		text := body[n*4:]
		ch.Strs = make([]string, n)
		prev := uint32(0)
		for i := 0; i < n; i++ {
			end := binary.LittleEndian.Uint32(body[i*4:])
			if end < prev || end > uint32(len(text)) {
				return ch, fmt.Errorf("%w: string chunk offset %d out of order", ErrCorrupt, i)
			}
			ch.Strs[i] = string(text[prev:end])
			prev = end
		}
		if int(prev) != len(text) {
			return ch, fmt.Errorf("%w: string chunk has %d unclaimed bytes", ErrCorrupt, len(text)-int(prev))
		}
	default:
		return ch, fmt.Errorf("%w: unknown chunk encoding %d", ErrCorrupt, enc)
	}
	return ch, nil
}

// WriteFile writes a table image to path crash-consistently (temp file,
// fsync, rename, parent-directory fsync).
func WriteFile(path string, t *Table) error {
	data, err := Encode(t)
	if err != nil {
		return err
	}
	return fsio.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// ReadFile reads and verifies a table image. Corruption surfaces as
// ErrCorrupt; the caller decides whether to quarantine.
func ReadFile(path string) (*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// reader is a bounds-checked little-endian cursor over the footer.
type reader struct {
	buf []byte
	err bool
}

func (r *reader) take(n int) []byte {
	if r.err || len(r.buf) < n {
		r.err = true
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *reader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *reader) string16() string {
	n := int(r.u16())
	if b := r.take(n); b != nil {
		return string(b)
	}
	return ""
}

func writeString16(b *bytes.Buffer, s string) {
	le16(b, uint16(len(s)))
	b.WriteString(s)
}

func le16(b *bytes.Buffer, v uint16) {
	var w [2]byte
	binary.LittleEndian.PutUint16(w[:], v)
	b.Write(w[:])
}

func le32(b *bytes.Buffer, v uint32) {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], v)
	b.Write(w[:])
}

func le64(b *bytes.Buffer, v uint64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	b.Write(w[:])
}
