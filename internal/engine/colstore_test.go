package engine_test

import (
	"strings"
	"testing"

	"legodb/internal/colfile"
	"legodb/internal/engine"
	"legodb/internal/imdb"
	"legodb/internal/relational"
	"legodb/internal/shred"
	"legodb/internal/sqlast"
	"legodb/internal/xquery"
)

// freezeDatabase round-trips every table of db through the colfile
// binary format — SnapshotColumns → Encode → Decode → NewColumnBase —
// and installs the decoded chunks as frozen bases in a fresh database,
// exactly as a reopened store snapshot serves them.
func freezeDatabase(t *testing.T, db *engine.Database, cat *relational.Catalog) *engine.Database {
	t.Helper()
	frozen := engine.NewDatabase(cat)
	for _, name := range cat.Order {
		src := db.Table(name)
		cols := make([]string, len(src.Def.Columns))
		for i, c := range src.Def.Columns {
			cols[i] = c.Name
		}
		ct := &colfile.Table{
			Name:    name,
			Columns: cols,
			Rows:    src.LiveRows(),
			NextID:  src.PeekNextID(),
			Cols:    src.SnapshotColumns(),
		}
		data, err := colfile.Encode(ct)
		if err != nil {
			t.Fatalf("encode %s: %v", name, err)
		}
		back, err := colfile.Decode(data)
		if err != nil {
			t.Fatalf("decode %s: %v", name, err)
		}
		base, err := engine.NewColumnBase(back.Cols, float64(back.DataBytes))
		if err != nil {
			t.Fatalf("base %s: %v", name, err)
		}
		dst := frozen.Table(name)
		if err := dst.SetColumnBase(base); err != nil {
			t.Fatalf("install %s: %v", name, err)
		}
		dst.SetNextID(back.NextID)
	}
	return frozen
}

// TestColumnBaseDifferentialIMDB is invariant 16 on the executor: the
// workload corpus runs against the heap image and its colfile-frozen
// twin, live and after cascading deletes, and the two must agree on
// errors and result multisets (the physical layout is invisible to
// answers — only IO accounting may shift, since frozen tables charge
// encoded bytes instead of catalog row-width estimates).
// TestExecutorMatchesDefinition holds each storage, a heap tail over a
// frozen base included, to refRun.
func TestColumnBaseDifferentialIMDB(t *testing.T) {
	for _, cfg := range diffConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			heap, ps, cat, matching, years := buildDiffDB(t, cfg, 11)
			frozen := freezeDatabase(t, heap, cat)

			// answer is an execution's row multiset, or its error.
			answer := func(db *engine.Database, sq *sqlast.Query, p engine.Params) string {
				rs, err := db.Execute(sq, p)
				if err != nil {
					return "error: " + err.Error()
				}
				return strings.Join(rowMultiset(rs), "\n")
			}
			check := func(t *testing.T) {
				translated := 0
				for _, qn := range imdb.QueryNames() {
					sq, err := xquery.Translate(imdb.Query(qn), ps, cat)
					if err != nil {
						continue
					}
					translated++
					for _, p := range []engine.Params{matching, years} {
						if answer(heap, sq, p) != answer(frozen, sq, p) {
							t.Fatalf("%s %v: heap and frozen storages answer differently", qn, p)
						}
					}
				}
				if translated < 10 {
					t.Fatalf("only %d queries translated — corpus too thin to be meaningful", translated)
				}
			}
			t.Run("live", check)

			// Deletions against the frozen base: cascade the same rows out
			// of both images (their positions agree, the base was frozen
			// live) and require the storages to stay in agreement.
			cascadeDelete(t, shred.New(ps, cat, heap), 0, 3)
			cascadeDelete(t, shred.New(ps, cat, frozen), 0, 3)
			t.Run("deleted", check)
		})
	}
}

// TestSetColumnBaseRules covers the installation contract: only an
// empty table accepts a base, column counts must match, every chunk must
// be stored as its column's kind, and installing rebuilds indexes over
// the base rows.
func TestSetColumnBaseRules(t *testing.T) {
	heap, _, cat, _, _ := buildDiffDB(t, diffConfigs()[0], 3)
	name := cat.Order[0]
	src := heap.Table(name)
	base, err := engine.NewColumnBase(src.SnapshotColumns(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Non-empty table refuses.
	if err := src.SetColumnBase(base); err == nil {
		t.Error("non-empty table accepted a base")
	}
	fresh := engine.NewDatabase(cat)
	dst := fresh.Table(name)
	// A chunk of integers under a string column, or of strings under an
	// INT column, is refused, and the table stays empty.
	for ci, c := range dst.Def.Columns {
		cols := src.SnapshotColumns()
		ch := &cols[ci][0]
		if c.Type == relational.IntCol {
			ch.Ints, ch.Strs = nil, make([]string, ch.N)
		} else {
			ch.Ints, ch.Strs = make([]int64, ch.N), nil
		}
		wrong, err := engine.NewColumnBase(cols, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.SetColumnBase(wrong); err == nil || dst.NumRows() != 0 {
			t.Fatalf("a %s chunk of the other kind: %v, %d rows", c.Type, err, dst.NumRows())
		}
	}
	if err := dst.SetColumnBase(base); err != nil {
		t.Fatal(err)
	}
	if dst.NumRows() != src.LiveRows() {
		t.Fatalf("NumRows = %d, want %d", dst.NumRows(), src.LiveRows())
	}
	// The key index answers over base rows.
	key := dst.Def.Key()
	id := dst.Cell(0, dst.ColumnIndex(key))
	positions, ok := dst.Lookup(key, id)
	if !ok || len(positions) != 1 || positions[0] != 0 {
		t.Errorf("Lookup(%s, %v) = %v, %v", key, id, positions, ok)
	}
	// Cell and Row agree across the whole base.
	for pos := 0; pos < dst.NumRows(); pos++ {
		row := dst.Row(pos)
		for ci := range dst.Def.Columns {
			if row[ci] != dst.Cell(pos, ci) {
				t.Fatalf("row %d col %d: Row=%v Cell=%v", pos, ci, row[ci], dst.Cell(pos, ci))
			}
		}
	}
}
