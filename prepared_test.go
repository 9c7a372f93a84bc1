package legodb

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"legodb/internal/engine"
	"legodb/internal/imdb"
	"legodb/internal/relational"
	"legodb/internal/xquery"
)

// uncachedQuery answers a query with nothing kept from an earlier call:
// parsed, translated, bound and planned for this call alone, straight
// through the engine.
func uncachedQuery(s *Store, text string, params Params) (*engine.ResultSet, error) {
	q, err := xquery.Parse(text)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	sq, err := xquery.Translate(q, s.schema, s.catalog)
	if err != nil {
		return nil, err
	}
	return s.db.ExecuteContext(context.Background(), sq, params.values())
}

// measuredRun runs fn and returns the store's counter delta over it.
func measuredRun(t *testing.T, s *Store, fn func() (*engine.ResultSet, error)) (*engine.ResultSet, engine.Counters) {
	t.Helper()
	before := s.Measured()
	rs, err := fn()
	if err != nil {
		t.Fatal(err)
	}
	after := s.Measured()
	return rs, engine.Counters{
		BytesRead:  after.BytesRead - before.BytesRead,
		TuplesRead: after.TuplesRead - before.TuplesRead,
		Probes:     after.Probes - before.Probes,
		Scans:      after.Scans - before.Scans,
		TuplesOut:  after.TuplesOut - before.TuplesOut,
	}
}

// samePreparedAnswer runs pq and the uncached path on the same
// parameters and requires equal rows and equal counter deltas; it
// returns the delta.
func samePreparedAnswer(t *testing.T, s *Store, pq *PreparedQuery, text string, params Params) engine.Counters {
	t.Helper()
	got, gotC := measuredRun(t, s, func() (*engine.ResultSet, error) { return pq.RunValues(context.Background(), params) })
	want, wantC := measuredRun(t, s, func() (*engine.ResultSet, error) { return uncachedQuery(s, text, params) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("prepared answer %v, uncached %v", got.Rows, want.Rows)
	}
	if gotC != wantC {
		t.Fatalf("prepared run measured %+v, uncached %+v", gotC, wantC)
	}
	if len(got.Rows) == 0 {
		t.Fatal("nothing answered: nothing was compared")
	}
	return gotC
}

// TestPreparedPlanFollowsIndexRetune: one PreparedQuery for Q19, prepared
// while Show.title has no index, must start probing once an index on it
// is installed in place on the same catalog — with the work of a query
// planned afresh — and scan again once it is dropped. A plan made before
// the retune is refused by the engine.
func TestPreparedPlanFollowsIndexRetune(t *testing.T) {
	_, _, store := indexFixture(t, 60)
	titles, err := store.Query(`FOR $v IN imdb/show RETURN $v/title`, nil)
	if err != nil || len(titles.Rows) == 0 {
		t.Fatalf("titles: %v", err)
	}
	q19 := imdb.Query("Q19").String()
	params := Params{"c1": titles.Rows[len(titles.Rows)/2][0]}
	pq, err := store.Prepare(q19)
	if err != nil {
		t.Fatal(err)
	}
	scanned := samePreparedAnswer(t, store, pq, q19, params)
	stale := pq.snap.Load()

	install := func(refs []relational.IndexRef) {
		store.mu.Lock()
		defer store.mu.Unlock()
		if err := store.db.SetIndexes(refs); err != nil {
			t.Fatal(err)
		}
	}
	install([]relational.IndexRef{{Table: "Show", Column: "title"}})
	if store.catalog != stale.cat {
		t.Fatal("an index retune swapped the catalog: this test needs one changed in place")
	}
	probed := samePreparedAnswer(t, store, pq, q19, params)
	if probed.Scans >= scanned.Scans || probed.TuplesRead >= scanned.TuplesRead {
		t.Errorf("indexed run measured %+v, scanning run %+v: the prepared plan did not follow the index", probed, scanned)
	}
	if fresh := pq.snap.Load(); fresh.sql != stale.sql {
		t.Error("an index retune re-translated: only the plan depends on the index set")
	}
	if _, err := store.db.ExecutePlan(context.Background(), stale.plan, nil); !errors.Is(err, engine.ErrStalePlan) {
		t.Errorf("a plan made before the retune ran: %v", err)
	}

	install(nil)
	if again := samePreparedAnswer(t, store, pq, q19, params); again != scanned {
		t.Errorf("after the index was dropped the run measured %+v, want the scan's %+v", again, scanned)
	}
}

// The two configurations of TestPreparedPlanAcrossMigration: the second
// has no isbn, so a text filtering on it stops translating.
const (
	libSchema = `type Lib = lib [ Book{0,*} ]
type Book = book [ title [ String ], year [ Integer ], isbn [ String ]{0,*} ]`
	libSchemaNoISBN = `type Lib = lib [ Book{0,*} ]
type Book = book [ title [ String ], year [ Integer ] ]`
	libDoc = `<lib><book><title>Emma</title><year>1815</year></book>` +
		`<book><title>Persuasion</title><year>1817</year></book>` +
		`<book><title>Sanditon</title><year>1817</year></book></lib>`
	libByYear = `FOR $b IN lib/book WHERE $b/year = c1 RETURN $b/title`
	libByISBN = `FOR $b IN lib/book WHERE $b/isbn = c1 RETURN $b/title`
)

func libAdvice(t *testing.T, schema string) *Advice {
	t.Helper()
	eng, err := New(schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddQuery("year", libByYear, 1); err != nil {
		t.Fatal(err)
	}
	advice, err := eng.EvaluateFixed("all-inlined")
	if err != nil {
		t.Fatal(err)
	}
	return advice
}

// TestPreparedPlanAcrossMigration: after MigrateTo, preparing a kept
// text again is a hit on the same instance, re-translated against the
// new configuration and answering as a fresh translation does; a kept
// text that no longer translates fails in Prepare and is let go.
func TestPreparedPlanAcrossMigration(t *testing.T) {
	store, err := libAdvice(t, libSchema).Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.LoadXML(strings.NewReader(libDoc)); err != nil {
		t.Fatal(err)
	}
	params := Params{"c1": "1817"}
	byYear, err := store.Prepare(libByYear)
	if err != nil {
		t.Fatal(err)
	}
	samePreparedAnswer(t, store, byYear, libByYear, params)
	byISBN, err := store.Prepare(libByISBN)
	if err != nil {
		t.Fatal(err)
	}
	oldCat := store.catalog

	if _, err := store.MigrateTo(libAdvice(t, libSchemaNoISBN)); err != nil {
		t.Fatal(err)
	}
	hit, err := store.Prepare(libByYear)
	if err != nil {
		t.Fatal(err)
	}
	if hit != byYear {
		t.Fatal("preparing a kept text after a migration returned a new instance")
	}
	if pp := hit.snap.Load(); pp == nil || pp.cat == oldCat || pp.cat != store.catalog {
		t.Fatal("the hit was not re-prepared against the new configuration")
	}
	samePreparedAnswer(t, store, hit, libByYear, params)

	if _, err := store.Prepare(libByISBN); err == nil {
		t.Fatal("a text that no longer translates prepared")
	}
	if kept := store.prepared.get(libByISBN); kept != nil {
		t.Error("a text that failed to prepare is still kept")
	}
	if _, err := byISBN.Run(Params{"c1": "x"}); err == nil {
		t.Error("a held instance of an untranslatable text ran")
	}
}

// TestPrepareCacheBounded: the store keeps at most preparedCacheSize
// texts, oldest out first; a hit is the same instance; failures and
// oversized texts are not kept; and texts that differ only in their
// report label are kept apart but observed as one shape.
func TestPrepareCacheBounded(t *testing.T) {
	store := observedStore(t)
	text := func(i int) string { return fmt.Sprintf("(: q%d :) %s", i, yearQuery) }
	first, err := store.Prepare(text(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < preparedCacheSize+10; i++ {
		if _, err := store.Prepare(text(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n, m := len(store.prepared.entries), len(store.prepared.fifo); n != preparedCacheSize || m != n {
		t.Fatalf("kept %d texts in a %d-long order, want %d", n, m, preparedCacheSize)
	}
	last, _ := store.Prepare(text(preparedCacheSize + 9))
	if again, _ := store.Prepare(text(preparedCacheSize + 9)); again != last {
		t.Error("a hit returned a new instance")
	}
	if again, _ := store.Prepare(text(0)); again == first {
		t.Error("the oldest text outlived the bound")
	}

	for _, bad := range []string{"NOT XQUERY", `FOR $v IN imdb/nosuch RETURN $v`} {
		if _, err := store.Prepare(bad); err == nil {
			t.Fatalf("%q prepared", bad)
		}
		if store.prepared.get(bad) != nil {
			t.Errorf("failed text %q kept", bad)
		}
	}
	long := "(: " + strings.Repeat("x", preparedTextMax) + " :) " + yearQuery
	if _, err := store.Prepare(long); err != nil {
		t.Fatal(err)
	}
	if store.prepared.get(long) != nil {
		t.Error("a text over preparedTextMax was kept")
	}

	fresh := observedStore(t)
	for _, label := range []string{"(: a :) ", "(: b :) "} {
		if _, err := fresh.Query(label+yearQuery, Params{"c1": "1995"}); err != nil {
			t.Fatal(err)
		}
	}
	if len(fresh.prepared.entries) != 2 {
		t.Errorf("two labeled texts kept as %d", len(fresh.prepared.entries))
	}
	if w, n := fresh.ObservedWorkload(); n != 2 || len(w.Entries) != 1 || w.Entries[0].Weight != 2 {
		t.Errorf("two labeled runs observed as %d shapes over %d observations, want one of weight 2", len(w.Entries), n)
	}
}

// TestPreparedQueryHammer: readers share prepared queries — instances
// held across the whole run and Prepare hits alike — while a writer
// inserts and deletes akas, a retuner drops and re-chooses the index
// set, and a migrator moves the store to another configuration and
// back. Every mutation also goes to a twin store answered only through
// the uncached path. While the hammer runs, facts no mutation touches
// must be answered as the twin answers them; afterwards every query must
// be. Run under -race in CI.
func TestPreparedQueryHammer(t *testing.T) {
	eng, baseline, store := indexFixture(t, 40)
	target, err := eng.AdviseWorkload(context.Background(), imdb.LookupWorkload(), AdviseOptions{Strategy: GreedySI, MaxIterations: 3})
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
	titles, err := uncachedQuery(twin, `FOR $v IN imdb/show RETURN $v/title, $v/year`, nil)
	if err != nil || len(titles.Rows) < 10 {
		t.Fatalf("titles: %v", err)
	}
	q19 := imdb.Query("Q19").String()
	shared := make(map[string]*PreparedQuery)
	for _, text := range []string{titleQuery, yearQuery, q19} {
		if shared[text], err = store.Prepare(text); err != nil {
			t.Fatal(err)
		}
	}
	twinRows := func(text string, params Params) []string {
		rs, err := uncachedQuery(twin, text, params)
		if err != nil {
			t.Fatal(err)
		}
		return valueRows(rs)
	}
	wantByTitle := make(map[string][]string)
	for _, r := range titles.Rows {
		title := r[0].String()
		wantByTitle[title] = twinRows(titleQuery, Params{"c1": title})
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
				title := titles.Rows[i%len(titles.Rows)][0].String()
				pq, err := shared[titleQuery], error(nil)
				if i%2 == 1 {
					if pq, err = store.Prepare(titleQuery); err != nil {
						report(fmt.Errorf("Prepare: %w", err))
						return
					}
				}
				rs, err := pq.RunValues(context.Background(), Params{"c1": title})
				if err != nil {
					report(fmt.Errorf("title lookup: %w", err))
					return
				}
				if got := valueRows(rs); !reflect.DeepEqual(got, wantByTitle[title]) {
					report(fmt.Errorf("title %q answered %v, twin says %v", title, got, wantByTitle[title]))
					return
				}
				if _, err := shared[q19].Run(Params{"c1": title}); err != nil {
					report(fmt.Errorf("Q19: %w", err))
					return
				}
			}
		}(g)
	}
	workers.Add(3)
	go func() {
		defer workers.Done()
		byTitle := `FOR $s IN imdb/show WHERE $s/title = c1 RETURN $s`
		byAka := `FOR $k IN imdb/show/aka WHERE $k = c1 RETURN $k`
		for i := 0; i < 80; i++ {
			title := titles.Rows[(i*7)%len(titles.Rows)][0].String()
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
	go func() {
		defer workers.Done()
		for i := 0; i < 20; i++ {
			refs := []relational.IndexRef{{Table: "Show", Column: "title"}}
			if i%2 == 1 {
				refs = nil
			}
			var err error
			store.mu.Lock()
			if store.catalog.Table("Show") != nil {
				err = store.db.SetIndexes(refs)
			}
			store.mu.Unlock()
			if err != nil {
				report(fmt.Errorf("install indexes: %w", err))
				return
			}
			store.retuneIndexes()
		}
	}()
	go func() {
		defer workers.Done()
		for _, a := range []*Advice{target, baseline} {
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

	for i, r := range titles.Rows {
		title, year := r[0].String(), r[1].String()
		checks := map[string]Params{titleQuery: {"c1": title}}
		if i%5 == 0 {
			checks[q19] = Params{"c1": title}
			checks[yearQuery] = Params{"c1": year}
		}
		for text, params := range checks {
			rs, err := shared[text].RunValues(context.Background(), params)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			got, want := valueRows(rs), twinRows(text, params)
			if text == q19 {
				got, want = textRows(got), textRows(want)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %v: prepared answers %v, uncached twin %v", text, params, got, want)
			}
		}
	}
}

// valueRows renders a result set as a sorted multiset of rows.
func valueRows(rs *engine.ResultSet) []string {
	res := &Result{}
	for _, row := range rs.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		res.Rows = append(res.Rows, cells)
	}
	return sortedRows(res, false)
}

// textRows drops the surrogate keys (every all-digit cell) from rows
// rendered by valueRows: a migration renumbers them.
func textRows(rows []string) []string {
	res := &Result{}
	for _, r := range rows {
		res.Rows = append(res.Rows, strings.Split(r, "|"))
	}
	return sortedRows(res, true)
}
