package legodb

import (
	"strings"
	"testing"

	"legodb/internal/imdb"
	"legodb/internal/xquery"
)

// observedStore opens a small store for observation tests.
func observedStore(t *testing.T) *Store {
	t.Helper()
	eng, err := New(imdb.SchemaText)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetStatisticsText(imdb.StatsText); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddQuery("pub", `FOR $v IN imdb/show RETURN $v`, 1); err != nil {
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
	if err := store.Load(imdb.Generate(imdb.GenOptions{Shows: 10, Seed: 3})); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestObservedWorkloadAccumulates proves served queries land in the
// observed workload with frequency weights, keyed by shape: the same
// query text observed under different report names is one shape.
func TestObservedWorkloadAccumulates(t *testing.T) {
	store := observedStore(t)
	if w, n := store.ObservedWorkload(); n != 0 || len(w.Entries) != 0 {
		t.Fatalf("fresh store already observed %d shapes / %d total", len(w.Entries), n)
	}

	lookup := `FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title`
	publish := `FOR $v IN imdb/show RETURN $v`
	for i := 0; i < 3; i++ {
		if _, err := store.Query(lookup, Params{"c1": "1995"}); err != nil {
			t.Fatal(err)
		}
	}
	// The same lookup under a report label must not register as a new
	// shape.
	if _, err := store.Query(`(: labeled :) `+lookup, Params{"c1": "1996"}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Query(publish, nil); err != nil {
		t.Fatal(err)
	}

	w, n := store.ObservedWorkload()
	if n != 5 {
		t.Errorf("want 5 observations, got %d", n)
	}
	if len(w.Entries) != 2 {
		t.Fatalf("want 2 query shapes, got %d", len(w.Entries))
	}
	// First-observed order, weight = frequency.
	if w.Entries[0].Weight != 4 || w.Entries[1].Weight != 1 {
		t.Errorf("weights = %v, %v; want 4, 1", w.Entries[0].Weight, w.Entries[1].Weight)
	}
	for _, e := range w.Entries {
		if e.Query.Name != "" {
			t.Errorf("observed shape carries a report name %q", e.Query.Name)
		}
	}
}

// TestObservedWorkloadRecordsMutations proves DeleteWhere and
// InsertChild register as update shapes that carry their name-stripped
// locate query — as part of the update, not as a query of their own —
// and that the same mutation located differently is a different shape.
func TestObservedWorkloadRecordsMutations(t *testing.T) {
	store := observedStore(t)
	byYear := `FOR $s IN imdb/show WHERE $s/year = c1 RETURN $s`
	if _, err := store.DeleteWhere(byYear, Params{"c1": "1700"}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.DeleteWhere(`(: labeled :) `+byYear, Params{"c1": "1701"}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.InsertChild(
		`FOR $s IN imdb/show RETURN $s`, nil, `<aka>x</aka>`); err != nil {
		t.Fatal(err)
	}
	if _, err := store.InsertChild(
		`FOR $s IN imdb/show WHERE $s/year = c1 RETURN $s`, Params{"c1": "1700"}, `<aka>x</aka>`); err != nil {
		t.Fatal(err)
	}
	w, n := store.ObservedWorkload()
	if n != 4 {
		t.Errorf("want 4 observations, got %d", n)
	}
	if len(w.Entries) != 0 {
		t.Errorf("mutations recorded %d query shapes, want none", len(w.Entries))
	}
	var got []string
	for _, u := range w.Updates {
		if u.Update.Locate == nil || u.Update.Locate.Name != "" {
			t.Errorf("update shape %q: locate missing or labeled", u.Update)
		}
		got = append(got, u.Update.String())
	}
	want := []string{
		"DELETE doc/imdb/show AT " + mustParseQuery(t, byYear).String(),
		"INSERT doc/imdb/show/aka AT " + mustParseQuery(t, `FOR $s IN imdb/show RETURN $s`).String(),
		"INSERT doc/imdb/show/aka AT " + mustParseQuery(t, byYear).String(),
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("update shapes:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if w.Updates[0].Weight != 2 {
		t.Errorf("labeled and unlabeled deletes weigh %v together, want 2", w.Updates[0].Weight)
	}
}

// TestObserverDecayAndPrune drives the observer past its decay window
// and checks that weights halve and one-off shapes eventually vanish
// while the hot shape survives.
func TestObserverDecayAndPrune(t *testing.T) {
	obs := newWorkloadObserver()
	hot, hotKey := queryShape(mustParseQuery(t, `FOR $v IN imdb/show RETURN $v/title`))
	cold, coldKey := queryShape(mustParseQuery(t, `FOR $v IN imdb/show RETURN $v/year`))
	obs.observeQuery(cold, coldKey)
	for i := 0; i < 2*observeWindow; i++ {
		obs.observeQuery(hot, hotKey)
	}
	w, total := obs.workload()
	if total != uint64(2*observeWindow+1) {
		t.Errorf("total = %d", total)
	}
	if len(w.Entries) != 1 {
		t.Fatalf("cold shape should have decayed away: %d entries", len(w.Entries))
	}
	// Two decays happened; the hot weight must be far below the raw
	// count but still dominant.
	if hotW := w.Entries[0].Weight; hotW >= 2*observeWindow || hotW < 1 {
		t.Errorf("hot weight = %v after decay", hotW)
	}
}

// TestObservationSurvivesMigration: the observer is a property of the
// traffic, not the storage layout — a migration must not reset it.
func TestObservationSurvivesMigration(t *testing.T) {
	_, store, target := migrationFixture(t, 10)
	if _, err := store.Query(`FOR $v IN imdb/show RETURN $v/title`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := store.MigrateTo(target); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Query(`FOR $v IN imdb/show RETURN $v/title`, nil); err != nil {
		t.Fatal(err)
	}
	w, n := store.ObservedWorkload()
	if n != 2 || len(w.Entries) != 1 {
		t.Errorf("observations across migration: total=%d shapes=%d, want 2/1", n, len(w.Entries))
	}
	if w.Entries[0].Weight != 2 {
		t.Errorf("shape weight = %v, want 2", w.Entries[0].Weight)
	}
}

// TestObservedWorkloadIsAdvisable closes the loop: an observed workload
// snapshot must feed straight back into the advisor.
func TestObservedWorkloadIsAdvisable(t *testing.T) {
	eng, store, _ := migrationFixture(t, 10)
	for i := 0; i < 4; i++ {
		if _, err := store.Query(`FOR $v IN imdb/show RETURN $v`, nil); err != nil {
			t.Fatal(err)
		}
	}
	w, _ := store.ObservedWorkload()
	advice, err := eng.AdviseWorkload(t.Context(), w, AdviseOptions{Strategy: GreedySI, MaxIterations: 2})
	if err != nil {
		t.Fatalf("advising the observed workload: %v", err)
	}
	if advice.Cost() <= 0 {
		t.Errorf("advised cost = %v", advice.Cost())
	}
	if !strings.Contains(advice.PSchema(), "IMDB") {
		t.Error("advice carries no schema")
	}
}

func mustParseQuery(t *testing.T, text string) *xquery.Query {
	t.Helper()
	q, err := xquery.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestObserveUpdateStripsName is the regression test for the update-shape
// aliasing bug: a labeled update text ("(: W1 :)" report comment) must
// land on the same observed shape as its unlabeled twin, the recorded
// shape must carry no name, and recording must never mutate the caller's
// Update in place.
func TestObserveUpdateStripsName(t *testing.T) {
	store := observedStore(t)
	named := xquery.MustParseUpdate(`(: W1 :) INSERT imdb/show/aka`)
	if named.Name != "W1" {
		t.Fatalf("parsed Name = %q, want W1", named.Name)
	}
	plain := xquery.MustParseUpdate(`INSERT imdb/show/aka`)
	store.obs.observeUpdate(named)
	store.obs.observeUpdate(plain)

	if named.Name != "W1" {
		t.Errorf("observation mutated the caller's update: Name = %q", named.Name)
	}
	w, n := store.ObservedWorkload()
	if n != 2 {
		t.Errorf("want 2 observations, got %d", n)
	}
	if len(w.Updates) != 1 {
		t.Fatalf("labeled and unlabeled texts split into %d shapes, want 1", len(w.Updates))
	}
	if got := w.Updates[0].Update.Name; got != "" {
		t.Errorf("observed shape kept a report label: Name = %q", got)
	}
	if w.Updates[0].Weight != 2 {
		t.Errorf("shape weight = %v, want 2", w.Updates[0].Weight)
	}
}
