package engine

import "testing"

// TestSlabGrowsToDemandUpToMaxSlab: a slab serves what does not fit from
// the heap, then grows on reset to the demand it saw, but never keeps
// more than maxSlab elements.
func TestSlabGrowsToDemandUpToMaxSlab(t *testing.T) {
	var s slab[int32]
	a, b := s.take(10), s.take(20)
	if len(a) != 10 || len(b) != 20 || len(s.buf) != 0 {
		t.Fatalf("empty slab: took %d and %d, holds %d", len(a), len(b), len(s.buf))
	}
	s.reset()
	if len(s.buf) != 30 {
		t.Fatalf("slab grew to %d, want the 30 asked for", len(s.buf))
	}
	a, b = s.take(10), s.take(20)
	a[9], b[0] = 1, 2
	if &a[0] != &s.buf[0] || &b[0] != &s.buf[10] || cap(a) != 10 || a[9] != 1 {
		t.Fatal("a slab that fits does not hand out its own, disjoint pieces")
	}
	s.take(2 * maxSlab)
	s.reset()
	if len(s.buf) != maxSlab {
		t.Fatalf("slab grew to %d, want at most %d", len(s.buf), maxSlab)
	}
	g := s.grow(s.take(3)[:3])
	if len(g) != 3 || cap(g) < 4 {
		t.Fatalf("grow: len %d cap %d", len(g), cap(g))
	}
}
