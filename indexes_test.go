package legodb

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"legodb/internal/imdb"
)

const (
	yearQuery  = `FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title, $v/year`
	titleQuery = `FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/title, $v/year`
)

// indexFixture advises the all-inlined configuration for year lookups and
// opens it with shows loaded.
func indexFixture(t *testing.T, shows int) (*Engine, *Advice, *Store) {
	t.Helper()
	eng, err := New(imdb.SchemaText)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetStatisticsText(imdb.StatsText); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddQuery("year", yearQuery, 1); err != nil {
		t.Fatal(err)
	}
	advice, err := eng.EvaluateFixed("all-inlined")
	if err != nil {
		t.Fatal(err)
	}
	store, err := advice.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Load(imdb.Generate(imdb.GenOptions{Shows: shows, Seed: 7})); err != nil {
		t.Fatal(err)
	}
	return eng, advice, store
}

// TestStoreIndexesWhatItIsAsked follows the index set through a store's
// life: seeded from the declared workload by Advice.Open (lazily, outside
// the search, never on the advised catalog itself), re-chosen from the
// observed workload when an observer generation completes, visible in
// ExplainQuery and Measured, invisible in answers and in DDL, and gone —
// to be re-learned — after a save and reopen.
func TestStoreIndexesWhatItIsAsked(t *testing.T) {
	_, advice, store := indexFixture(t, 60)
	cost := advice.Cost()
	if got := advice.Indexes(); !reflect.DeepEqual(got, []string{"Show.year"}) {
		t.Fatalf("advised indexes = %v, want [Show.year]", got)
	}
	if advice.Cost() != cost {
		t.Error("choosing indexes moved the advised cost")
	}
	if got := advice.result.Best.Catalog.Indexes(); len(got) != 0 {
		t.Fatalf("the advised catalog itself was flagged: %v", got)
	}
	if !strings.Contains(advice.DDL(), "CREATE INDEX idx_Show_year ON Show (year)") {
		t.Errorf("advised DDL has no CREATE INDEX line:\n%s", advice.DDL())
	}
	if got := store.Indexes(); !reflect.DeepEqual(got, []string{"Show.year"}) {
		t.Fatalf("fresh store indexes = %v, want the advised [Show.year]", got)
	}

	title := "none"
	if res, err := store.Query(`FOR $v IN imdb/show RETURN $v/title`, nil); err != nil || len(res.Rows) == 0 {
		t.Fatalf("titles: %v", err)
	} else {
		title = res.Rows[len(res.Rows)/2][0]
	}
	explain, err := store.ExplainQuery(titleQuery)
	if err != nil || !strings.Contains(explain, "-- block 1: scan ") {
		t.Fatalf("before the index, ExplainQuery = %q, %v", explain, err)
	}
	ddl := store.DDL()
	want, err := store.Query(titleQuery, Params{"c1": title})
	if err != nil || len(want.Rows) == 0 {
		t.Fatalf("title lookup: %v, %v", want, err)
	}
	scanned := store.Measured().TuplesRead
	if _, err := store.Query(titleQuery, Params{"c1": title}); err != nil {
		t.Fatal(err)
	}
	scanned = store.Measured().TuplesRead - scanned
	// One observer generation of title lookups (two are behind us).
	for i := 2; i < observeWindow; i++ {
		got, err := store.Query(titleQuery, Params{"c1": title})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("lookup %d: %v, %v", i, got, err)
		}
	}
	// The store indexes what it is asked, not what was declared: nobody
	// looked a year up, so that index went as the title's came.
	if got := store.Indexes(); !reflect.DeepEqual(got, []string{"Show.title"}) {
		t.Fatalf("after a generation of title lookups, indexes = %v", got)
	}
	if store.IndexRetunes() != 1 {
		t.Errorf("index retunes = %d, want 1", store.IndexRetunes())
	}
	probed := store.Measured().TuplesRead
	if got, err := store.Query(titleQuery, Params{"c1": title}); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("indexed lookup: %v, %v", got, err)
	}
	if probed = store.Measured().TuplesRead - probed; probed*10 > scanned {
		t.Errorf("indexed lookup read %d tuples, scan read %d", probed, scanned)
	}
	explain, err = store.ExplainQuery(titleQuery)
	if err != nil || !strings.Contains(explain, "-- block 1: index(Show.title) ") {
		t.Errorf("after the index, ExplainQuery = %q, %v", explain, err)
	}
	if store.DDL() != ddl {
		t.Error("the index set leaked into the store's DDL")
	}
	// A second generation of the same traffic changes nothing.
	for i := 0; i < observeWindow; i++ {
		if _, err := store.Query(titleQuery, Params{"c1": title}); err != nil {
			t.Fatal(err)
		}
	}
	if store.IndexRetunes() != 1 {
		t.Errorf("steady traffic retuned again: %d", store.IndexRetunes())
	}

	// Indexes are derived state: not in the snapshot, re-learned from
	// traffic within one generation.
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Indexes(); len(got) != 0 {
		t.Fatalf("reopened store carries indexes %v", got)
	}
	for i := 0; i < observeWindow; i++ {
		got, err := reopened.Query(titleQuery, Params{"c1": title})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("reopened lookup %d: %v, %v", i, got, err)
		}
	}
	if got := reopened.Indexes(); !reflect.DeepEqual(got, []string{"Show.title"}) {
		t.Errorf("reopened store re-learned %v, want [Show.title]", got)
	}
}

// sortedRows renders a result as a sorted multiset of rows. Queries that
// return whole elements also return surrogate keys, which a migration
// renumbers; with textOnly those (and every other all-digit cell, and
// NULLs) are left out.
func sortedRows(res *Result, textOnly bool) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		var cells []string
		for _, c := range r {
			if _, err := strconv.Atoi(c); textOnly && (err == nil || c == "NULL") {
				continue
			}
			cells = append(cells, c)
		}
		out[i] = strings.Join(cells, "|")
	}
	sort.Strings(out)
	return out
}

// TestIndexedStoreHammer is invariant 17 under load: readers query a
// store while a writer inserts and deletes akas, the index set is torn
// down and re-chosen, and the store migrates to another configuration
// and back. Every mutation is also applied to a twin store that serves
// no traffic and so never indexes anything. While the hammer runs, the
// facts no mutation touches (a show's year by its title) must always be
// answered as the twin answers them; afterwards every query must be.
// Run under -race in CI.
func TestIndexedStoreHammer(t *testing.T) {
	eng, baseline, store := indexFixture(t, 40)
	target, err := eng.AdviseWorkload(t.Context(), imdb.LookupWorkload(), AdviseOptions{Strategy: GreedySI, MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := openStore(baseline.result.Best.Schema, baseline.result.Best.Catalog.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.Load(imdb.Generate(imdb.GenOptions{Shows: 40, Seed: 7})); err != nil {
		t.Fatal(err)
	}
	titles, err := twin.Query(`FOR $v IN imdb/show RETURN $v/title, $v/year`, nil)
	if err != nil || len(titles.Rows) < 10 {
		t.Fatalf("titles: %v, %v", titles, err)
	}
	yearOf := make(map[string][]string)
	for _, r := range titles.Rows {
		yearOf[r[0]] = append(yearOf[r[0]], r[0]+"|"+r[1])
	}

	var readers, workers sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				title := titles.Rows[i%len(titles.Rows)][0]
				res, err := store.Query(titleQuery, Params{"c1": title})
				if err != nil {
					report(fmt.Errorf("title lookup: %w", err))
					return
				}
				if got := sortedRows(res, false); !reflect.DeepEqual(got, yearOf[title]) {
					report(fmt.Errorf("title %q answered %v, twin says %v", title, got, yearOf[title]))
					return
				}
				if _, err := store.Query(imdb.Query("Q19").String(), Params{"c1": title}); err != nil {
					report(fmt.Errorf("Q19: %w", err))
					return
				}
			}
		}(g)
	}
	// The writer: every mutation goes to both stores.
	workers.Add(1)
	go func() {
		defer workers.Done()
		byTitle := `FOR $s IN imdb/show WHERE $s/title = c1 RETURN $s`
		byAka := `FOR $k IN imdb/show/aka WHERE $k = c1 RETURN $k`
		for i := 0; i < 120; i++ {
			title := titles.Rows[(i*7)%len(titles.Rows)][0]
			for _, s := range []*Store{store, twin} {
				if _, err := s.InsertChild(byTitle, Params{"c1": title}, fmt.Sprintf("<aka>alias %d</aka>", i)); err != nil {
					report(fmt.Errorf("InsertChild: %w", err))
					return
				}
				if i%3 == 2 {
					if _, err := s.DeleteWhere(byAka, Params{"c1": fmt.Sprintf("alias %d", i-1)}); err != nil {
						report(fmt.Errorf("DeleteWhere: %w", err))
						return
					}
				}
			}
		}
	}()
	// The retuner: drop every index, then let the chooser put back what
	// the observed workload wants.
	workers.Add(1)
	go func() {
		defer workers.Done()
		for i := 0; i < 30; i++ {
			store.mu.Lock()
			err := store.installIndexesLocked(nil)
			store.mu.Unlock()
			if err != nil {
				report(fmt.Errorf("drop indexes: %w", err))
				return
			}
			store.retuneIndexes()
		}
	}()
	// The migrator: there and back.
	workers.Add(1)
	go func() {
		defer workers.Done()
		for _, a := range []*Advice{target, baseline, target} {
			if _, err := store.MigrateTo(a, MigrateOptions{TablesPerGroup: 3}); err != nil {
				report(fmt.Errorf("MigrateTo: %w", err))
				return
			}
		}
	}()
	workers.Wait()
	close(stop)
	readers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	store.retuneIndexes()
	if len(store.Indexes()) == 0 {
		t.Fatal("the hammered store ended without indexes: nothing was compared")
	}
	if got := twin.Indexes(); len(got) != 0 {
		t.Fatalf("the twin indexed %v", got)
	}
	same := func(text string, params Params, textOnly bool) {
		t.Helper()
		got, err := store.Query(text, params)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		want, err := twin.Query(text, params)
		if err != nil {
			t.Fatalf("twin %s: %v", text, err)
		}
		if g, w := sortedRows(got, textOnly), sortedRows(want, textOnly); !reflect.DeepEqual(g, w) {
			t.Errorf("%s %v: indexed store answers %v, twin %v", text, params, g, w)
		}
	}
	same(`FOR $k IN imdb/show/aka RETURN $k`, nil, true)
	for i, r := range titles.Rows {
		same(titleQuery, Params{"c1": r[0]}, false)
		if i%5 == 0 {
			same(imdb.Query("Q19").String(), Params{"c1": r[0]}, true)
			same(yearQuery, Params{"c1": r[1]}, false)
		}
	}
}
