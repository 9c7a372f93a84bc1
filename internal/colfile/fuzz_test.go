package colfile

import (
	"encoding/binary"
	"errors"
	"testing"

	"legodb/internal/fsio"
)

// FuzzColfileDecode drives Decode with arbitrary bytes. Two guarantees
// on every input:
//
//  1. Decode never panics — a forged footer, an implausible chunk
//     count, an overflowing offset or a bitmap with stray bits must all
//     fail through validation, not through an out-of-range index or a
//     giant allocation;
//  2. every rejection wraps ErrCorrupt, so the store layer's quarantine
//     logic (errors.Is) sees one sentinel no matter which layer of the
//     format objected.
//
// Inputs that decode are re-encoded and decoded again: the second
// decode must succeed with identical metadata (Encode of a decoded
// table is itself valid).
func FuzzColfileDecode(f *testing.F) {
	// Seeds: valid files of several shapes, plus targeted near-misses —
	// a bit-flipped body, a truncated tail, a forged footer whose chunk
	// entries point outside the data region, and a chunk in the retired
	// mixed encoding.
	for _, rows := range []int{1, 100, 1024, 1500} {
		f.Add(encodeFixture(f, rows))
	}
	valid := encodeFixture(f, 64)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x80
	f.Add(flipped)
	f.Add(valid[:len(valid)-9])
	f.Add(valid[:11])
	forged := append([]byte(nil), valid...)
	// Overwrite the footer-length word with a huge value and re-stamp
	// the trailing file CRC so only footer validation can object.
	binary.LittleEndian.PutUint64(forged[len(forged)-16:], 1<<50)
	binary.LittleEndian.PutUint32(forged[len(forged)-4:], fsio.Checksum(forged[:len(forged)-4]))
	f.Add(forged)
	f.Add(retiredMixedImage())
	f.Add([]byte("LGDBCOLF"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		re, err := Encode(tbl)
		if err != nil {
			t.Fatalf("decoded table does not re-encode: %v", err)
		}
		back, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded table does not decode: %v", err)
		}
		if back.Name != tbl.Name || back.Rows != tbl.Rows || back.NextID != tbl.NextID ||
			len(back.Columns) != len(tbl.Columns) {
			t.Fatalf("round trip changed the table: %+v vs %+v", back, tbl)
		}
	})
}
