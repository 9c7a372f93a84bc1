package engine

import (
	"context"
	"fmt"
	"slices"

	"legodb/internal/sqlast"
)

// This file is the vectorized batch executor: the intermediate result is
// a set of per-alias position vectors ([]int32 row positions, one column
// per bound alias, all the same length) instead of per-tuple
// map[string]int bindings. Scans and filters run in chunks of BatchSize
// rows through gathered column Vectors; joins emit (source-tuple, new-
// position) pairs and rebind the position columns with tight gather
// loops; hash joins build chained tables over composite join keys.
// TestExecutorMatchesDefinition holds its answers to refRun, the nested-
// loop definition of a block, and TestCountersPinned pins its Counters.

type batchExec struct {
	db     *Database
	ctx    context.Context
	stats  *Counters
	p      *blockPlan
	params Params
	// cols[slot] is the position vector for the alias at that slot, nil
	// while unbound. All non-nil columns have length n.
	cols [][]int32
	n    int
	// mem holds every position and hash vector the block drops by its
	// end, e.cols included.
	mem *arena
	// Scratch buffers reused across chunks.
	vec, vec2 Vector
	selBuf    []int32
	hashBuf   []uint64 // a chunk of join-key hashes
}

func (db *Database) executeBlockBatch(ctx context.Context, p *blockPlan, params Params, stats *Counters, out *emitter) error {
	e := &batchExec{
		db:     db,
		ctx:    ctx,
		stats:  stats,
		p:      p,
		params: params,
		cols:   make([][]int32, len(p.order)),
		mem:    arenaPool.Get().(*arena),
	}
	defer e.mem.release()
	start, err := e.startPositions()
	if err != nil {
		return err
	}
	e.cols[p.slot[p.start]] = start
	e.n = len(start)

	for i := range p.steps {
		st := &p.steps[i]
		switch {
		case st.kind == stepCartesian:
			err = e.stepCartesian(st)
		case st.probesIndex(e.n, p.tables[st.alias], params):
			err = e.stepINL(st)
		default:
			err = e.stepHash(st)
		}
		if err != nil {
			return err
		}
		if err := e.applyCross(st.cross); err != nil {
			return err
		}
	}
	e.inFromOrder()
	return out.project(ctx, p, e.cols, e.n)
}

// inFromOrder puts the tuples in lexicographic order of their row
// positions, aliases taken in FROM order, so a block's rows leave in an
// order fixed by the block and the data, whatever join order the planner
// chose. Every step emits (source tuple, new position) pairs, so the
// tuples already sort that way along the join order: nothing to do when
// that is FROM order, and when it binds no alias before an earlier one
// in FROM except through its parent key — as in the blocks the
// translator emits, mostly — checking costs the only pass.
func (e *batchExec) inFromOrder() {
	if e.p.bindsInFromOrder() {
		return
	}
	cmp := func(i, j int32) int {
		for _, c := range e.cols {
			if c[i] != c[j] {
				return int(c[i]) - int(c[j])
			}
		}
		return 0
	}
	i := int32(1)
	for int(i) < e.n && cmp(i-1, i) <= 0 {
		i++
	}
	if int(i) >= e.n {
		return
	}
	perm := e.mem.i32.take(e.n)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, cmp)
	e.keep(perm)
}

// startPositions binds the start relation: the filtered positions of an
// index lookup when the plan has one, of a scan otherwise. Either way
// they leave ascending.
func (e *batchExec) startPositions() ([]int32, error) {
	t := e.p.tables[e.p.start]
	matched, cf, ok := e.p.indexStart(e.params, e.stats)
	if !ok {
		return e.scanPositions(t, e.p.startFilters)
	}
	out := e.mem.i32.take(len(matched))[:0]
	for base := 0; base < len(matched); base += BatchSize {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		chunk := matched[base:min(base+BatchSize, len(matched))]
		sel := e.selection(len(chunk))
		for _, pos := range chunk {
			sel = append(sel, int32(pos))
		}
		sel, err := e.filterChunk(t, cf, sel)
		if err != nil {
			return nil, err
		}
		out = append(out, sel...)
	}
	return out, nil
}

// selection returns the empty scratch selection with room for n
// positions, sized by the first chunk that asks: a point lookup does not
// pay for a full batch.
func (e *batchExec) selection(n int) []int32 {
	if cap(e.selBuf) < n {
		e.selBuf = e.mem.i32.take(n)
	}
	return e.selBuf[:0]
}

// scanChunks scans a table chunk by chunk, applying constant filters
// through gathered vectors, and hands each chunk's passing live row
// positions to emit (the slice is reused by the next chunk). It accrues
// one scan, every heap row (tombstoned included) read.
func (e *batchExec) scanChunks(t *Table, filters []sqlast.Filter, emit func(sel []int32)) error {
	n := t.NumRows()
	e.stats.Scans++
	e.stats.TuplesRead += int64(n)
	e.stats.BytesRead += t.scanBytes()
	cf := compileFilters(t, filters, e.params)
	for base := 0; base < n; base += BatchSize {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		end := min(base+BatchSize, n)
		sel := e.selection(end - base)
		if len(t.dead) == 0 {
			for pos := base; pos < end; pos++ {
				sel = append(sel, int32(pos))
			}
		} else {
			for pos := base; pos < end; pos++ {
				if t.Alive(pos) {
					sel = append(sel, int32(pos))
				}
			}
		}
		sel, err := e.filterChunk(t, cf, sel)
		if err != nil {
			return err
		}
		emit(sel)
	}
	return nil
}

// scanPositions materializes a scanChunks scan as one position list.
func (e *batchExec) scanPositions(t *Table, filters []sqlast.Filter) ([]int32, error) {
	out := e.mem.i32.take(t.NumRows())[:0]
	err := e.scanChunks(t, filters, func(sel []int32) { out = append(out, sel...) })
	return out, err
}

// filterChunk narrows one chunk's selection through the compiled
// filters. Filters evaluate in order over the surviving selection, so a
// filter's deferred resolution error surfaces exactly when some row
// reaches it, as it would evaluating the filters row by row.
func (e *batchExec) filterChunk(t *Table, cf []compiledFilter, sel []int32) ([]int32, error) {
	for i := range cf {
		if len(sel) == 0 {
			return sel, nil
		}
		f := &cf[i]
		if f.err != nil {
			return nil, f.err
		}
		e.vec.gather(t, f.colIdx, sel)
		if f.rightIdx >= 0 {
			e.vec2.gather(t, f.rightIdx, sel)
			sel = compactPair(&e.vec, &e.vec2, f.op, sel)
		} else {
			sel = compactLiteral(&e.vec, f.op, f.lit, sel)
		}
	}
	return sel, nil
}

// stepINL probes the new relation's index on the join column once per
// intermediate tuple, collecting (source tuple, matched position) pairs.
// Each match that passes the relation's filters must also meet the
// tuple on every equality the step fuses, as the hash step's key meets
// it, so pairs the cross filters would reject are never formed
// (applyCross still re-checks them).
func (e *batchExec) stepINL(st *planStep) error {
	newCi, oldCi, err := e.p.resolveJoinCols(st)
	if err != nil {
		return err
	}
	newTable := e.p.tables[st.alias]
	oldTable := e.p.tables[st.oldAlias]
	cf := compileFilters(newTable, st.filters, e.params)
	var newKey, oldKey joinKey
	if len(st.fused) > 0 {
		newKey, oldKey = e.joinKeys(st, newCi, oldCi)
	}
	heapBytes := newTable.Def.RowBytes()
	oldPos := e.cols[e.p.slot[st.oldAlias]]
	src, newPos := e.pairs(e.n)
	for i := 0; i < e.n; i++ {
		if i&ctxCheckMask == 0 {
			if err := e.ctx.Err(); err != nil {
				return err
			}
		}
		e.stats.Probes++
		v := oldTable.Cell(int(oldPos[i]), oldCi)
		if v.IsNull() {
			continue // NULL equals nothing, a NULL key included
		}
		for _, pos := range newTable.lookup(st.index, v) {
			e.stats.TuplesRead++
			e.stats.BytesRead += newTable.probeRowBytes(pos, heapBytes)
			ok, err := passesCompiledAt(newTable, pos, cf)
			if err != nil {
				return err
			}
			if !ok || !fusedMeet(newKey, oldKey, pos, i) {
				continue
			}
			src, newPos = e.growPairs(src, newPos)
			src = append(src, int32(i))
			newPos = append(newPos, int32(pos))
		}
	}
	e.rebind(st.alias, src, newPos)
	return nil
}

// fusedMeet reports whether the new relation's row at pos and
// intermediate tuple i meet on every fused part of a step's key (parts 1
// on; part 0 is the join edge the probe matched): equal, and not NULL.
func fusedMeet(newKey, oldKey joinKey, pos, i int) bool {
	for k := 1; k < len(newKey); k++ {
		n, o := &newKey[k], &oldKey[k]
		a := n.t.Cell(pos, n.ci)
		if a.IsNull() || a != o.t.Cell(int(o.at[i]), o.ci) {
			return false
		}
	}
	return true
}

// stepHash scans the new relation once and joins it to the intermediate
// tuples through a hash table built on whichever side has fewer tuples,
// keyed on the join edge and every equality the step fuses (see
// joinKey). The scan's passing positions are held back while they number
// no more than the intermediate; if the scan ends that way they are the
// build side and the intermediate probes. Once they outnumber it, the
// intermediate's keys are hashed instead and the held-back positions and
// the rest of the scan stream through, so a one-tuple intermediate never
// hashes a whole relation and an empty one hashes nothing. Either way
// pairs leave in (source tuple, scan position) order.
func (e *batchExec) stepHash(st *planStep) error {
	newCi, oldCi, err := e.p.resolveJoinCols(st)
	if err != nil {
		return err
	}
	newTable := e.p.tables[st.alias]
	newKey, oldKey := e.joinKeys(st, newCi, oldCi)
	src, newPos := e.pairs(e.n)
	held := e.mem.i32.take(min(e.n, newTable.NumRows()))[:0]
	var ht *hashTable // over the intermediate, once the scan outnumbers it
	ordered := true   // src is still non-decreasing
	if e.hashBuf == nil {
		e.hashBuf = e.mem.u64.take(BatchSize)
	}
	probe := func(sel []int32) {
		newKey.on(sel)
		for base := 0; base < len(sel); base += BatchSize {
			hs := newKey.hashes(base, min(base+BatchSize, len(sel)), e.hashBuf)
			for j, h := range hs {
				at := int32(base + j)
				exact := ht.exact(h)
				for i := ht.first(h); i != 0; i = ht.after(i, h) {
					if !exact && oldKey.primary(i-1) != newKey.primary(at) {
						continue
					}
					ordered = ordered && (len(src) == 0 || src[len(src)-1] < i)
					src, newPos = e.growPairs(src, newPos)
					src = append(src, i-1)
					newPos = append(newPos, sel[at])
				}
			}
		}
	}
	err = e.scanChunks(newTable, st.filters, func(sel []int32) {
		if e.n == 0 {
			return
		}
		if ht == nil {
			if len(held)+len(sel) <= e.n {
				held = append(held, sel...)
				return
			}
			ht = buildHash(oldKey, e.n, e.hashBuf, e.mem)
			probe(held)
		}
		probe(sel)
	})
	if err != nil {
		return err
	}
	switch {
	case ht == nil:
		ht = buildHash(newKey.on(held), len(held), e.hashBuf, e.mem)
		for base := 0; base < e.n; base += BatchSize {
			if err := e.ctx.Err(); err != nil {
				return err
			}
			hs := oldKey.hashes(base, min(base+BatchSize, e.n), e.hashBuf)
			for j, h := range hs {
				i := int32(base + j)
				exact := ht.exact(h)
				for k := ht.first(h); k != 0; k = ht.after(k, h) {
					if !exact && newKey.primary(k-1) != oldKey.primary(i) {
						continue
					}
					src, newPos = e.growPairs(src, newPos)
					src = append(src, i)
					newPos = append(newPos, held[k-1])
				}
			}
		}
	case !ordered:
		src, newPos = sortBySource(src, newPos, e.n, &e.mem.i32)
	}
	e.rebind(st.alias, src, newPos)
	return nil
}

// joinKeys resolves a join step's key on both sides: the join edge, then
// each fused equality whose columns resolve (one that does not is left to
// its cross filter, which reports the error after the join, exactly as
// if nothing were fused). The new side reads the new relation at the
// positions it is pointed at (joinKey.on) or, in an index step, at each
// match; the old side reads the bound aliases' position columns, tuple
// by tuple.
func (e *batchExec) joinKeys(st *planStep, newCi, oldCi int) (newKey, oldKey joinKey) {
	newTable := e.p.tables[st.alias]
	m := 1 + len(st.fused)
	parts := make(joinKey, 2*m) // one allocation for both keys
	newKey, oldKey = parts[:1:m], parts[m:m+1]
	newKey[0] = keyCol{t: newTable, ci: newCi}
	oldKey[0] = keyCol{t: e.p.tables[st.oldAlias], ci: oldCi, at: e.cols[e.p.slot[st.oldAlias]]}
	for _, f := range st.fused {
		ot := e.p.tables[f[1].Alias]
		nci, oci := newTable.ColumnIndex(f[0].Column), ot.ColumnIndex(f[1].Column)
		if nci < 0 || oci < 0 {
			continue
		}
		newKey = append(newKey, keyCol{t: newTable, ci: nci})
		oldKey = append(oldKey, keyCol{t: ot, ci: oci, at: e.cols[e.p.slot[f[1].Alias]]})
	}
	return newKey, oldKey
}

// on points every part of a key over one relation at positions.
func (k joinKey) on(positions []int32) joinKey {
	for i := range k {
		k[i].at = positions
	}
	return k
}

// pairs returns the empty (source tuple, new position) columns of a join
// step, with room for n pairs.
func (e *batchExec) pairs(n int) (src, newPos []int32) {
	return e.mem.i32.take(n)[:0], e.mem.i32.take(n)[:0]
}

// growPairs makes room for one more pair.
func (e *batchExec) growPairs(src, newPos []int32) ([]int32, []int32) {
	if len(src) < cap(src) {
		return src, newPos
	}
	return e.mem.i32.grow(src), e.mem.i32.grow(newPos)
}

// sortBySource reorders join pairs emitted in (scan position, source
// tuple) order into (source tuple, scan position) order: a stable
// counting sort on src over n source tuples, in mem.
func sortBySource(src, newPos []int32, n int, mem *slab[int32]) ([]int32, []int32) {
	at := mem.take(n + 1)
	clear(at)
	for _, s := range src {
		at[s+1]++
	}
	for i := 0; i < n; i++ {
		at[i+1] += at[i]
	}
	osrc, opos := mem.take(len(src)), mem.take(len(src))
	for k, s := range src {
		osrc[at[s]], opos[at[s]] = s, newPos[k]
		at[s]++
	}
	return osrc, opos
}

// stepCartesian crosses the intermediate tuples with a filtered scan of
// a disconnected relation.
func (e *batchExec) stepCartesian(st *planStep) error {
	rows, err := e.scanPositions(e.p.tables[st.alias], st.filters)
	if err != nil {
		return err
	}
	src, newPos := e.pairs(e.n * len(rows))
	for i := 0; i < e.n; i++ {
		if i&ctxCheckMask == 0 {
			if err := e.ctx.Err(); err != nil {
				return err
			}
		}
		for _, pos := range rows {
			src = append(src, int32(i))
			newPos = append(newPos, pos)
		}
	}
	e.rebind(st.alias, src, newPos)
	return nil
}

// rebind gathers every bound position column through src and installs
// newPos as the freshly bound alias's column.
func (e *batchExec) rebind(alias string, src, newPos []int32) {
	e.keep(src)
	e.cols[e.p.slot[alias]] = newPos
}

// keep gathers every bound position column through src: the tuples src
// lists, in its order, are the intermediate from now on.
func (e *batchExec) keep(src []int32) {
	for s, c := range e.cols {
		if c == nil {
			continue
		}
		nc := e.mem.i32.take(len(src))
		for k, i := range src {
			nc[k] = c[i]
		}
		e.cols[s] = nc
	}
	e.n = len(src)
}

// applyCross filters the intermediate tuples by the scheduled cross
// filters, comparing gathered chunk vectors pairwise (see compactPair).
func (e *batchExec) applyCross(filters []sqlast.Filter) error {
	for _, f := range filters {
		lt, rt := e.p.tables[f.Col.Alias], e.p.tables[f.RightCol.Alias]
		li, ri := lt.ColumnIndex(f.Col.Column), rt.ColumnIndex(f.RightCol.Column)
		if li < 0 || ri < 0 {
			return fmt.Errorf("bad cross filter %s", f)
		}
		lcol := e.cols[e.p.slot[f.Col.Alias]]
		rcol := e.cols[e.p.slot[f.RightCol.Alias]]
		kept := e.mem.i32.take(e.n)[:0]
		for base := 0; base < e.n; base += BatchSize {
			if err := e.ctx.Err(); err != nil {
				return err
			}
			end := min(base+BatchSize, e.n)
			e.vec.gather(lt, li, lcol[base:end])
			e.vec2.gather(rt, ri, rcol[base:end])
			sel := kept[len(kept) : len(kept)+end-base]
			for j := range sel {
				sel[j] = int32(base + j)
			}
			kept = kept[:len(kept)+len(compactPair(&e.vec, &e.vec2, f.Op, sel))]
		}
		if len(kept) < e.n {
			e.keep(kept)
		}
	}
	return nil
}
