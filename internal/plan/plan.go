// Package plan is the logical-plan layer between the XQuery translator
// and the cost-based optimizer. It gives translated SPJ blocks a
// canonical identity — an alias- and order-invariant Fingerprint over
// tables, join edges, filters and projections — and a per-configuration
// Space that interns every block the workload translates to, costs each
// distinct block once via optimizer.BlockCostShared, and composes
// per-query costs from the shared block costings.
//
// Two identities with different guarantees coexist on purpose:
//
//   - sqlast.Block.ShapeKey is alias-invariant but order-preserving. The
//     optimizer's block costing is itself alias-independent (no cost term
//     reads an alias string) but order-dependent in the low bits (float
//     selectivities multiply in filter order; greedy ties break by FROM
//     position), so the cost memo keys on ShapeKey and replayed costs are
//     bit-identical to recomputation — a search through the plan layer
//     returns the same bytes as one costing every block afresh.
//   - Fingerprint is additionally order-invariant (signature refinement
//     over the join graph), the right identity for structural dedup
//     statistics and for asking "is this the same logical block". A
//     fingerprint collision between order-variants can never corrupt a
//     cost: costs are keyed on ShapeKey alone.
package plan

import (
	"fmt"
	"sort"

	"legodb/internal/sqlast"
)

// Fingerprint is the canonical, alias- and order-invariant identity of
// an SPJ block.
type Fingerprint uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return (h ^ 0xff) * fnvPrime64 // terminator: "ab"+"c" ≠ "a"+"bc"
}

func hashU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

// BlockFingerprint computes the canonical fingerprint of a block.
//
// The construction is a Weisfeiler-Lehman-style signature refinement over
// the block's join graph. Each FROM entry starts from a local signature
// (table name, sorted single-alias filters, sorted projected columns);
// len(Tables) refinement rounds then fold in the sorted multiset of
// (edge label, neighbour signature) pairs, where join predicates and
// cross-alias comparison filters contribute the edges. The final hash
// folds the nodes in canonical signature order together with every join,
// filter and projection re-encoded against that order, so the result does
// not depend on alias names, FROM order, or the order of the join, filter
// and projection lists — but changes when any table, join edge column,
// filter operator or constant, or projected column changes.
func BlockFingerprint(b *sqlast.Block) Fingerprint {
	n := len(b.Tables)
	if n == 0 {
		return Fingerprint(fnvOffset64)
	}
	index := make(map[string]int, n)
	for i, t := range b.Tables {
		if _, ok := index[t.Alias]; !ok {
			index[t.Alias] = i
		}
	}
	// Local node signatures.
	local := make([][]string, n)
	for _, f := range b.Filters {
		if f.RightCol == nil || f.RightCol.Alias == f.Col.Alias {
			if i, ok := index[f.Col.Alias]; ok {
				local[i] = append(local[i], localFilterKey(f))
			}
		}
	}
	for _, p := range b.Projects {
		if i, ok := index[p.Alias]; ok {
			local[i] = append(local[i], "p\x00"+p.Column)
		}
	}
	sig := make([]uint64, n)
	for i, t := range b.Tables {
		h := hashStr(uint64(fnvOffset64), t.Table)
		sort.Strings(local[i])
		for _, s := range local[i] {
			h = hashStr(h, s)
		}
		sig[i] = h
	}
	// Edges of the join graph, labelled from each endpoint's perspective.
	type gedge struct {
		a, b   int
		la, lb string
	}
	var edges []gedge
	addEdge := func(l, r sqlast.ColumnRef, la, lb string) {
		i, iok := index[l.Alias]
		j, jok := index[r.Alias]
		if !iok || !jok {
			return
		}
		edges = append(edges, gedge{a: i, b: j, la: la, lb: lb})
	}
	for _, j := range b.Joins {
		addEdge(j.Left, j.Right,
			"j\x00"+j.Left.Column+"\x00"+j.Right.Column,
			"j\x00"+j.Right.Column+"\x00"+j.Left.Column)
	}
	for _, f := range b.Filters {
		if f.RightCol != nil && f.RightCol.Alias != f.Col.Alias {
			op := f.Op.String()
			addEdge(f.Col, *f.RightCol,
				"fl\x00"+op+"\x00"+f.Col.Column+"\x00"+f.RightCol.Column,
				"fr\x00"+op+"\x00"+f.RightCol.Column+"\x00"+f.Col.Column)
		}
	}
	// Refinement rounds.
	for round := 0; round < n; round++ {
		adj := make([][]uint64, n)
		for _, e := range edges {
			adj[e.a] = append(adj[e.a], hashU64(hashStr(uint64(fnvOffset64), e.la), sig[e.b]))
			adj[e.b] = append(adj[e.b], hashU64(hashStr(uint64(fnvOffset64), e.lb), sig[e.a]))
		}
		next := make([]uint64, n)
		for i := range next {
			sort.Slice(adj[i], func(x, y int) bool { return adj[i][x] < adj[i][y] })
			h := sig[i]
			for _, v := range adj[i] {
				h = hashU64(h, v)
			}
			next[i] = h
		}
		sig = next
	}
	// Canonical node order: by refined signature, table name as tie-break.
	ord := make([]int, n)
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(x, y int) bool {
		if sig[ord[x]] != sig[ord[y]] {
			return sig[ord[x]] < sig[ord[y]]
		}
		return b.Tables[ord[x]].Table < b.Tables[ord[y]].Table
	})
	rank := make(map[string]int, n)
	for r, i := range ord {
		if _, ok := rank[b.Tables[i].Alias]; !ok {
			rank[b.Tables[i].Alias] = r
		}
	}
	cref := func(c sqlast.ColumnRef) string {
		if r, ok := rank[c.Alias]; ok {
			return fmt.Sprintf("%d.%s", r, c.Column)
		}
		return "?" + c.Alias + "." + c.Column
	}
	// Final hash: canonical nodes, then the sorted re-encoded clause set.
	h := uint64(fnvOffset64)
	for _, i := range ord {
		h = hashU64(hashStr(h, b.Tables[i].Table), sig[i])
	}
	var parts []string
	for _, j := range b.Joins {
		l, r := cref(j.Left), cref(j.Right)
		if r < l { // equi-joins are symmetric
			l, r = r, l
		}
		parts = append(parts, "J\x00"+l+"\x00"+r)
	}
	for _, f := range b.Filters {
		if f.RightCol != nil {
			parts = append(parts, "F\x00"+cref(f.Col)+"\x00"+f.Op.String()+"\x00"+cref(*f.RightCol))
		} else {
			parts = append(parts, "F\x00"+cref(f.Col)+"\x00"+f.Op.String()+"\x00"+f.Value.String())
		}
	}
	for _, p := range b.Projects {
		parts = append(parts, "P\x00"+cref(p))
	}
	sort.Strings(parts)
	for _, s := range parts {
		h = hashStr(h, s)
	}
	return Fingerprint(h)
}

// localFilterKey encodes a single-alias filter for the node signature.
func localFilterKey(f sqlast.Filter) string {
	if f.RightCol != nil {
		return "f\x00" + f.Col.Column + "\x00" + f.Op.String() + "\x00" + f.RightCol.Column
	}
	return "f\x00" + f.Col.Column + "\x00" + f.Op.String() + "\x00" + f.Value.String()
}

// QueryFingerprint folds the fingerprints of a query's blocks as an
// unordered multiset: invariant under union-branch reordering and under
// anything BlockFingerprint is invariant under.
func QueryFingerprint(q *sqlast.Query) Fingerprint {
	fps := make([]uint64, len(q.Blocks))
	for i, b := range q.Blocks {
		fps[i] = uint64(BlockFingerprint(b))
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	h := uint64(fnvOffset64)
	for _, fp := range fps {
		h = hashU64(h, fp)
	}
	return Fingerprint(h)
}
