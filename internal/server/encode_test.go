package server

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"

	"legodb/internal/engine"
)

// queryResponse is the /query body as encoding/json renders it from
// stringified rows: the reference appendQueryResponse is held to.
type queryResponse struct {
	Columns   []string   `json:"columns"`
	Rows      [][]string `json:"rows"`
	ElapsedMs float64    `json:"elapsed_ms"`
}

// referenceBody encodes rs the way the handler did before it streamed:
// rows stringified cell by cell (nil when there are none), then
// json.Encoder.
func referenceBody(t *testing.T, rs *engine.ResultSet, elapsedMs float64) []byte {
	t.Helper()
	qr := queryResponse{Columns: rs.Columns, ElapsedMs: elapsedMs}
	for _, row := range rs.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		qr.Rows = append(qr.Rows, cells)
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(qr); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// appendQueryResponse appends the /query body for a materialized answer
// through the handler's encoder: the whole answer as one block and one
// chunk.
func appendQueryResponse(b []byte, rs *engine.ResultSet, elapsedMs float64) []byte {
	enc := queryEncoder{b: b}
	enc.Start(rs.Columns)
	if len(rs.Rows) > 0 {
		enc.Block(len(rs.Rows))
		enc.Rows(rs.Rows)
	}
	return enc.finish(elapsedMs)
}

// FuzzQueryResponseJSON: the streamed /query body is byte-identical to
// json.Encoder's rendering of the stringified answer, for any strings —
// HTML metacharacters, control bytes, invalid UTF-8, U+2028/U+2029 —
// any integer, NULL cells, answers without rows or columns, and any
// elapsed time.
func FuzzQueryResponseJSON(f *testing.F) {
	f.Add("t1.title", "<b>&amp;</b>", int64(-7), "\x00\x1f\x7f\"\\", 1.5)
	f.Add("", "\xff\xfe\xc0 invalid", int64(0), string(rune(0x2028))+"x"+string(rune(0x2029)), 0.001)
	f.Add("é€", "tab\tnew\nline\r\b\f", int64(math.MaxInt64), "\x1b[0m", 1e-7)
	f.Add("c", "", int64(math.MinInt64), "NULL", 1e21)
	f.Add("c", "ok", int64(42), "", 0.0)
	f.Fuzz(func(t *testing.T, col, s string, n int64, s2 string, elapsed float64) {
		if math.IsNaN(elapsed) || math.IsInf(elapsed, 0) {
			t.Skip("encoding/json rejects NaN and infinities")
		}
		rows := []engine.Row{
			{engine.StrVal(s), engine.IntVal(n), engine.Null},
			{engine.StrVal(s2), engine.Null, engine.StrVal(col)},
		}
		for _, rs := range []*engine.ResultSet{
			{Columns: []string{col, s, s2}, Rows: rows},
			{Columns: []string{col}},
			{},
			{Columns: []string{}, Rows: []engine.Row{{}}},
		} {
			got := appendQueryResponse(nil, rs, elapsed)
			if want := referenceBody(t, rs, elapsed); !bytes.Equal(got, want) {
				t.Fatalf("body diverges for %+v:\n got  %q\n want %q", rs, got, want)
			}
		}
	})
}

// TestAppendIntMatchesStrconv: the digit-pair formatter writes what
// strconv does at every digit-count boundary and at the extremes.
func TestAppendIntMatchesStrconv(t *testing.T) {
	ns := []int64{0, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for p := int64(1); p <= math.MaxInt64/10; p *= 10 {
		ns = append(ns, p-1, p, p+1, 10*p-1, -p, -p-1, -p+1)
	}
	for _, n := range ns {
		if got, want := string(appendInt([]byte("x"), n)), "x"+strconv.FormatInt(n, 10); got != want {
			t.Errorf("appendInt(%d) = %q, want %q", n, got, want)
		}
	}
}
