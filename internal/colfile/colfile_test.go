package colfile

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"legodb/internal/engine"
	"legodb/internal/fsio"
)

// fixtureTable builds a table exercising every chunk encoding: a pure
// int column, a pure string column, an all-null column and a string
// column with NULLs and empty strings, spanning more than one chunk so
// the short-last-chunk rule is exercised too.
func fixtureTable(rows int) *Table {
	ints := make([]engine.Value, rows)
	strs := make([]engine.Value, rows)
	nulls := make([]engine.Value, rows)
	sparse := make([]engine.Value, rows)
	for i := 0; i < rows; i++ {
		ints[i] = engine.IntVal(int64(i * 3))
		strs[i] = engine.StrVal(fmt.Sprintf("row-%d", i))
		nulls[i] = engine.Value{}
		switch i % 3 {
		case 0:
			sparse[i] = engine.StrVal(strings.Repeat("x", i%7))
		case 1:
			sparse[i] = engine.Value{}
		default:
			sparse[i] = engine.StrVal("")
		}
	}
	return &Table{
		Name:    "fixture",
		Columns: []string{"id", "name", "gap", "sparse"},
		Rows:    rows,
		NextID:  int64(rows + 1),
		Cols: [][]engine.ColumnChunk{
			engine.BuildColumnChunks(ints),
			engine.BuildColumnChunks(strs),
			engine.BuildColumnChunks(nulls),
			engine.BuildColumnChunks(sparse),
		},
	}
}

// oneChunkImage frames a one-column, three-row image around a raw chunk
// payload, as Encode lays an image out.
func oneChunkImage(payload []byte) []byte {
	var buf, footer bytes.Buffer
	buf.Write(magic[:])
	le16(&buf, Version)
	buf.Write(payload)
	writeString16(&footer, "t")
	le64(&footer, 3) // rows
	le64(&footer, 4) // next id
	le16(&footer, 1)
	writeString16(&footer, "v")
	le32(&footer, 1)
	le16(&footer, 0)
	le32(&footer, 3)
	le64(&footer, headerLen)
	le64(&footer, uint64(len(payload)))
	le32(&footer, fsio.Checksum(payload))
	buf.Write(footer.Bytes())
	le64(&buf, uint64(footer.Len()))
	le32(&buf, fsio.Checksum(footer.Bytes()))
	le32(&buf, fsio.Checksum(buf.Bytes()))
	return buf.Bytes()
}

// retiredMixedImage is a one-chunk image in the retired mixed encoding,
// byte 3, that tagged each row: the integer 7, the string "7" and a NULL,
// as the writer laid out a column that mixed kinds.
func retiredMixedImage() []byte {
	var p bytes.Buffer
	p.WriteByte(3)
	le64(&p, 0b100) // row 2 is NULL
	p.WriteByte(1)  // integer
	le64(&p, 7)
	p.WriteByte(2) // string
	le32(&p, 1)
	p.WriteString("7")
	p.WriteByte(0) // NULL
	return oneChunkImage(p.Bytes())
}

// TestDecodeRefusesRetiredMixedChunk: a chunk in the retired mixed
// encoding is refused as ErrCorrupt, while the same frame around an int
// chunk of the same rows decodes.
func TestDecodeRefusesRetiredMixedChunk(t *testing.T) {
	var ints bytes.Buffer
	ints.WriteByte(encInt)
	le64(&ints, 0b100)
	for _, v := range []uint64{7, 8, 0} {
		le64(&ints, v)
	}
	if got, err := Decode(oneChunkImage(ints.Bytes())); err != nil || got.Cols[0][0].Value(1) != engine.IntVal(8) {
		t.Fatalf("int chunk: %v, %v", got, err)
	}
	if _, err := Decode(retiredMixedImage()); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "encoding 3") {
		t.Fatalf("retired mixed chunk: %v, want ErrCorrupt for encoding 3", err)
	}
}

func encodeFixture(t testing.TB, rows int) []byte {
	t.Helper()
	data, err := Encode(fixtureTable(rows))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, rows := range []int{1, 2, engine.BatchSize - 1, engine.BatchSize, engine.BatchSize + 1, engine.BatchSize*2 + 500} {
		t.Run(fmt.Sprint(rows), func(t *testing.T) {
			orig := fixtureTable(rows)
			data, err := Encode(orig)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if got.Name != orig.Name || got.Rows != orig.Rows || got.NextID != orig.NextID {
				t.Fatalf("metadata: %q/%d/%d, want %q/%d/%d",
					got.Name, got.Rows, got.NextID, orig.Name, orig.Rows, orig.NextID)
			}
			if len(got.Columns) != len(orig.Columns) {
				t.Fatalf("columns: %v", got.Columns)
			}
			for ci := range orig.Cols {
				for pos := 0; pos < rows; pos++ {
					oc := &orig.Cols[ci][pos/engine.BatchSize]
					gc := &got.Cols[ci][pos/engine.BatchSize]
					i := pos % engine.BatchSize
					ov, gv := oc.Value(i), gc.Value(i)
					if ov != gv {
						t.Fatalf("col %d row %d: %v != %v", ci, pos, gv, ov)
					}
				}
			}
			if got.DataBytes <= 0 || got.DataBytes > int64(len(data)) {
				t.Errorf("DataBytes = %d with %d file bytes", got.DataBytes, len(data))
			}
		})
	}
}

func TestEncodeRejectsInconsistentTable(t *testing.T) {
	bad := fixtureTable(10)
	bad.Columns = bad.Columns[:2] // name count != column count
	if _, err := Encode(bad); err == nil {
		t.Error("column-count mismatch encoded")
	}
	bad = fixtureTable(10)
	bad.Rows = 11 // declared rows != chunk totals
	if _, err := Encode(bad); err == nil {
		t.Error("row-count mismatch encoded")
	}
}

func TestZeroRowTable(t *testing.T) {
	empty := &Table{Name: "empty", Columns: []string{"id"}, Rows: 0, NextID: 1,
		Cols: [][]engine.ColumnChunk{nil}}
	data, err := Encode(empty)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 0 || len(got.Columns) != 1 || got.Name != "empty" {
		t.Fatalf("got %+v", got)
	}
}

// TestDecodeDetectsEveryBitFlip flips each byte of a small valid file in
// turn: every mutation must be rejected with ErrCorrupt (CRCs cover the
// entire file) and none may panic.
func TestDecodeDetectsEveryBitFlip(t *testing.T) {
	data := encodeFixture(t, 40)
	for i := range data {
		b := append([]byte(nil), data...)
		b[i] ^= 0x10
		tbl, err := Decode(b)
		if err == nil {
			t.Fatalf("bit flip at byte %d/%d accepted (decoded %q)", i, len(data), tbl.Name)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at byte %d: error does not wrap ErrCorrupt: %v", i, err)
		}
	}
}

func TestDecodeDetectsEveryTruncation(t *testing.T) {
	data := encodeFixture(t, 40)
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decode(data[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: %v", cut, err)
		}
	}
	if _, err := Decode(append(append([]byte(nil), data...), 0x00)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage accepted: %v", err)
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.colfile")
	orig := fixtureTable(100)
	if err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != orig.Rows || got.Name != orig.Name {
		t.Fatalf("got %q/%d", got.Name, got.Rows)
	}
	// A truncated file on disk is rejected with ErrCorrupt so callers
	// can quarantine it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated file: %v", err)
	}
}
