package engine

import "sync"

// arena is one block execution's scratch memory: the position and hash
// vectors the block's steps build and drop by its end — hash tables,
// join pairs, the intermediate's position columns, their reorderings.
// It hands out pieces of one slab per element type and is given back
// whole, once the block has projected (see executeBlockBatch), to
// arenaPool, so a warm join allocates none of them. Nothing taken from
// an arena may outlive the execution that took it: project copies cells
// out of the tables, never positions. The slabs hold no pointers, so the
// collector never scans them.
type arena struct {
	i32 slab[int32]
	u64 slab[uint64]
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// release resets the arena and returns it to arenaPool.
func (a *arena) release() {
	a.i32.reset()
	a.u64.reset()
	arenaPool.Put(a)
}

// slab is a bump allocator over buf. A request that does not fit is
// served from the heap instead, and reset grows buf to everything asked
// for since the last reset, up to maxSlab, so the next execution of the
// same block fits: a slab is as large as the largest demand of any block
// it served.
type slab[T int32 | uint64] struct {
	buf  []T
	off  int // buf[:off] is handed out
	need int // elements asked for since the last reset
}

// take returns n elements, not cleared: the caller writes each before
// reading it.
func (s *slab[T]) take(n int) []T {
	s.need += n
	if s.off+n > len(s.buf) {
		return make([]T, n)
	}
	x := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	return x
}

// grow returns x with room for one more element: x itself while it has
// some, else a copy in twice the space.
func (s *slab[T]) grow(x []T) []T {
	if len(x) < cap(x) {
		return x
	}
	y := s.take(max(2*cap(x), 16))[:len(x)]
	copy(y, x)
	return y
}

// maxSlab bounds the elements a slab keeps between executions, so that
// one outsized block does not pin its scratch memory for every later
// one: demand beyond it is served from the heap. The largest block of
// the IMDB workload asks for about 400 000.
const maxSlab = 1 << 20

func (s *slab[T]) reset() {
	if s.need > len(s.buf) && len(s.buf) < maxSlab {
		s.buf = make([]T, min(s.need, maxSlab))
	}
	s.off, s.need = 0, 0
}
