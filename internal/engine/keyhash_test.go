package engine_test

import (
	"context"
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"legodb/internal/engine"
	"legodb/internal/faults"
	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
)

// checkKeyHashes fails unless every cell of every table reads the same
// through keyCell as through Cell and every string cell's stored key
// hash is the hash of its bytes.
func checkKeyHashes(t *testing.T, label string, db *engine.Database) {
	t.Helper()
	for name, tb := range db.Tables {
		for ci := range tb.Def.Columns {
			for pos := 0; pos < tb.NumRows(); pos++ {
				v, h := engine.KeyCell(tb, pos, ci)
				if v != tb.Cell(pos, ci) {
					t.Fatalf("%s: %s[%d, %d]: keyCell reads %v, Cell %v", label, name, pos, ci, v, tb.Cell(pos, ci))
				}
				if v.Kind == engine.StrValue && h != maphash.String(engine.KeySeed, v.Str) {
					t.Fatalf("%s: %s[%d, %d] = %q: stored hash %x is not the hash of its bytes", label, name, pos, ci, v.Str, h)
				}
			}
		}
	}
}

// randomCells fills every table of db with n random rows (n drawn per
// table, up to three chunks) whose columns each hold cells of their
// type with no NULL, some NULLs or NULLs alone, then tombstones some.
func randomCells(t *testing.T, rng *rand.Rand, db *engine.Database) {
	t.Helper()
	for _, name := range db.Cat.Order {
		tb := db.Table(name)
		nulls := make([]int, len(tb.Def.Columns))
		for ci := range nulls {
			nulls[ci] = rng.Intn(3)
		}
		n := rng.Intn(3 * engine.BatchSize)
		row := make(engine.Row, len(nulls))
		for i := 0; i < n; i++ {
			for ci, c := range tb.Def.Columns {
				switch {
				case nulls[ci] == 2 || nulls[ci] == 1 && rng.Intn(10) == 0:
					row[ci] = engine.Null
				case c.Type == relational.IntCol:
					row[ci] = engine.IntVal(int64(rng.Intn(50)))
				default:
					row[ci] = engine.StrVal("s" + strconv.Itoa(rng.Intn(50)))
				}
			}
			if err := tb.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n/20; i++ {
			tb.MarkDeleted(rng.Intn(n))
		}
	}
}

// mergeAll copies every row of src's tables, tombstoned included, into
// fresh tables of the same catalog, cell by cell through Insert: the
// merge MigrateTo makes of each rebuilt table group.
func mergeAll(t *testing.T, src *engine.Database) *engine.Database {
	t.Helper()
	dst := engine.NewDatabase(src.Cat)
	for name, st := range src.Tables {
		tb := dst.Table(name)
		row := make(engine.Row, len(tb.Def.Columns))
		for pos := 0; pos < st.NumRows(); pos++ {
			for ci := range row {
				row[ci] = st.Cell(pos, ci)
			}
			if err := tb.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dst
}

// TestKeyHashesFollowCells: the key hash a table stores beside each
// string cell is the hash of that cell's bytes in both storage halves —
// written by Insert, decoded from a colfile image into a base, on a
// base with a heap tail over it, with tombstones, and after the merge a
// migration makes — for random columns of strings or integers with and
// without NULLs, and for the shredded IMDB corpus.
func TestKeyHashesFollowCells(t *testing.T) {
	s := xschema.MustParseSchema(`
type R = r[ A*<#3>, B*<#3> ]
type A = a[ x[ String ], y[ Integer ] ]
type B = b[ u[ String ], v[ String ], w[ Integer ] ]`)
	cat, err := relational.Map(s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	for _, cfg := range diffConfigs() {
		shredded, _, cat, _, _ := buildDiffDB(t, cfg, 7)
		checkKeyHashes(t, cfg.name, shredded)
		checkKeyHashes(t, cfg.name+"/frozen", freezeDatabase(t, shredded, cat))
	}
	for trial := 0; trial < 8; trial++ {
		heap := engine.NewDatabase(cat)
		randomCells(t, rng, heap)
		checkKeyHashes(t, "heap", heap)
		frozen := freezeDatabase(t, heap, cat)
		checkKeyHashes(t, "frozen", frozen)
		randomCells(t, rng, frozen) // a heap tail over the base
		checkKeyHashes(t, "hybrid", frozen)
		checkKeyHashes(t, "merged", mergeAll(t, frozen))
	}
}

// collectRows runs a plan and returns its rows, in order, as text.
func collectRows(db *engine.Database, p *engine.Plan) ([]string, error) {
	rs, err := db.ExecutePlan(context.Background(), p, nil)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		out[i] = fmt.Sprint(r)
	}
	return out, nil
}

// panicSink panics on the first chunk it is handed, while the block
// that projects it still holds its scratch arena.
type panicSink struct{ engine.Collector }

func (panicSink) Rows([]engine.Row) { panic("sink fails mid-projection") }

// TestJoinScratchNotRetained: a block execution's scratch arena goes
// back to the pool when the block ends, and nothing of it outlives the
// execution — so executions sharing the pool concurrently, and those
// after one that panicked while holding an arena, answer as a lone
// execution does. Run it under -race.
func TestJoinScratchNotRetained(t *testing.T) {
	// Large enough that Q13's intermediates span several chunks.
	db, ps, cat, _, _ := buildDiffDB(t, diffConfig{"all-inlined", 120, pschema.AllInlined}, 7)
	names := []string{"Q12", "Q13"}
	plans := make([]*engine.Plan, len(names))
	want := make([][]string, len(names))
	for i, qn := range names {
		sq, err := xquery.Translate(imdb.Query(qn), ps, cat)
		if err != nil {
			t.Fatal(err)
		}
		if plans[i], err = db.Plan(sq); err != nil {
			t.Fatal(err)
		}
		if want[i], err = collectRows(db, plans[i]); err != nil {
			t.Fatal(err)
		}
		if len(want[i]) == 0 {
			t.Fatalf("%s answers nothing: the test needs rows", qn)
		}
	}
	check := func(label string, i int) error {
		got, err := collectRows(db, plans[i])
		if err != nil {
			return fmt.Errorf("%s: %s: %v", label, names[i], err)
		}
		if !slices.Equal(got, want[i]) {
			return fmt.Errorf("%s: %s answers %d rows unlike a lone run's %d", label, names[i], len(got), len(want[i]))
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				if err := check(fmt.Sprintf("goroutine %d", g), (g+k)%2); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	panics := func(f func()) (p any) {
		defer func() { p = recover() }()
		f()
		return nil
	}
	// A panic at the executor's fault seam of Q13's second block, after
	// the first block has run and given its arena back.
	hit := 0
	restore := faults.EnableHook(faults.SiteExec, -1, func() {
		if hit++; hit == 2 {
			panic("injected at the second block")
		}
	})
	p := panics(func() { collectRows(db, plans[1]) })
	restore()
	if p == nil {
		t.Fatal("the injected panic did not fire")
	}
	// A panic while a block holds its arena: the sink fails mid-projection.
	if p := panics(func() { db.ExecutePlanTo(context.Background(), plans[1], nil, &panicSink{}) }); p == nil {
		t.Fatal("the sink's panic did not fire")
	}
	for i := range names {
		if err := check("after a panic", i); err != nil {
			t.Error(err)
		}
	}
}

// TestAllocsHashJoin budgets a warm Q12: the four-way hash join on names
// and titles over the IMDB corpus. Every position and hash vector its
// steps build comes from the pooled scratch arena, so what allocates is
// the per-block bookkeeping and the collected answer, never the join's
// working set.
func TestAllocsHashJoin(t *testing.T) {
	if engine.RaceEnabled {
		t.Skip("allocation budgets only hold without the race detector")
	}
	db, ps, cat, _, _ := buildDiffDB(t, diffConfigs()[0], 7)
	sq, err := xquery.Translate(imdb.Query("Q12"), ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	p, err := db.Plan(sq)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := db.ExecutePlan(context.Background(), p, nil); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const budget = 26
	if got := testing.AllocsPerRun(50, run); got > budget {
		t.Errorf("warm Q12: %.0f allocs/op, budget %d", got, budget)
	}
}
