package legodb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"legodb/internal/faults"
	"legodb/internal/imdb"
)

// migrationFixture builds an engine over the IMDB schema and statistics,
// opens a store under the all-inlined baseline, loads a synthetic
// document, and advises a lookup-heavy target configuration that differs
// from the installed one — the raw material for every migration test.
func migrationFixture(t *testing.T, shows int) (*Engine, *Store, *Advice) {
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
	baseline, err := eng.EvaluateFixed("all-inlined")
	if err != nil {
		t.Fatal(err)
	}
	store, err := baseline.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Load(imdb.Generate(imdb.GenOptions{Shows: shows, Seed: 7})); err != nil {
		t.Fatal(err)
	}
	target, err := eng.AdviseWorkload(t.Context(), imdb.LookupWorkload(), AdviseOptions{Strategy: GreedySI, MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if target.PSchema() == store.PSchema() {
		t.Fatal("fixture is useless: advised target equals the installed configuration")
	}
	return eng, store, target
}

// publishString serializes the store's published documents to one
// string, for byte-identity comparison across a migration.
func publishString(t *testing.T, s *Store) string {
	t.Helper()
	docs, err := s.Publish()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, d := range docs {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMigrateDifferential is the acceptance criterion in miniature:
// after a live migration the published image is byte-identical, queries
// — including a PreparedQuery planned against the old catalog — return
// identical results, and the store reports the new configuration.
func TestMigrateDifferential(t *testing.T) {
	_, store, target := migrationFixture(t, 40)

	const q = `FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title, $v/year`
	pq, err := store.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	oldCat := store.catalog
	prePub := publishString(t, store)
	preRes, err := pq.Run(Params{"c1": "1995"})
	if err != nil {
		t.Fatal(err)
	}
	preDDL := store.DDL()

	rep, err := store.MigrateTo(target, MigrateOptions{TablesPerGroup: 2})
	if err != nil {
		t.Fatalf("MigrateTo: %v", err)
	}
	if rep.Groups < 2 {
		t.Errorf("expected multiple table groups, got %d", rep.Groups)
	}
	if rep.Restarts != 0 || rep.RebuiltUnderLock {
		t.Errorf("quiet store should migrate on the first attempt: %+v", rep)
	}
	if rep.Documents == 0 {
		t.Error("report claims zero documents migrated")
	}

	if got := store.PSchema(); got != target.PSchema() {
		t.Error("store does not report the migrated configuration")
	}
	if store.DDL() == preDDL {
		t.Error("DDL unchanged after migration to a different configuration")
	}
	if postPub := publishString(t, store); postPub != prePub {
		t.Error("published image not byte-identical after migration")
	}
	// The prepared query must transparently re-plan against the new
	// catalog and agree row-for-row.
	postRes, err := pq.Run(Params{"c1": "1995"})
	if err != nil {
		t.Fatalf("prepared run after migration: %v", err)
	}
	if fmt.Sprint(preRes.Rows) != fmt.Sprint(postRes.Rows) {
		t.Errorf("prepared query rows diverged:\npre:  %v\npost: %v", preRes.Rows, postRes.Rows)
	}
	// White-box: the plan cache must now be bound to the new catalog
	// (the run above forced the lazy re-translation).
	if cat := pq.snap.Load().cat; cat == oldCat || cat != store.catalog {
		t.Error("prepared query was not re-planned against the new catalog")
	}
	adhoc, err := store.Query(q, Params{"c1": "1995"})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(adhoc.Rows) != fmt.Sprint(postRes.Rows) {
		t.Error("ad-hoc and prepared results disagree after migration")
	}
}

// TestMigrateAbortAtGroupBoundary proves a fault at the first
// table-group rebuild leaves the old image untouched and serving.
func TestMigrateAbortAtGroupBoundary(t *testing.T) {
	_, store, target := migrationFixture(t, 20)
	prePub := publishString(t, store)
	prePS := store.PSchema()

	defer faults.Enable(faults.SiteMigrate, 1, false)()
	if _, err := store.MigrateTo(target); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
	if store.PSchema() != prePS {
		t.Error("aborted migration changed the installed configuration")
	}
	if publishString(t, store) != prePub {
		t.Error("aborted migration corrupted the serving image")
	}
	if _, err := store.Query(`FOR $v IN imdb/show RETURN $v/title`, nil); err != nil {
		t.Errorf("store not serving after aborted migration: %v", err)
	}
}

// TestMigrateAbortAtCutover panics inside the cutover critical section
// (write lock held). MigrateTo must recover, release the lock, and leave
// the old image serving.
func TestMigrateAbortAtCutover(t *testing.T) {
	_, store, target := migrationFixture(t, 20)
	prePub := publishString(t, store)
	prePS := store.PSchema()

	// One huge group ⇒ the site fires exactly twice: once before the
	// group rebuild (hit 1, let it pass) and once at cutover (hit 2,
	// panic with the write lock held).
	hits := 0
	defer faults.EnableHook(faults.SiteMigrate, -1, func() {
		hits++
		if hits == 2 {
			panic("injected at cutover")
		}
	})()
	_, err := store.MigrateTo(target, MigrateOptions{TablesPerGroup: 1 << 20})
	if err == nil || !strings.Contains(err.Error(), "injected at cutover") {
		t.Fatalf("want recovered cutover panic, got %v", err)
	}
	if store.PSchema() != prePS {
		t.Error("aborted cutover changed the installed configuration")
	}
	// The write lock must have been released: a mutation would deadlock
	// otherwise.
	if _, err := store.DeleteWhere(
		`FOR $s IN imdb/show WHERE $s/year = c1 RETURN $s`, Params{"c1": "1700"}); err != nil {
		t.Fatalf("mutation after recovered cutover panic: %v", err)
	}
	if publishString(t, store) != prePub {
		t.Error("aborted cutover corrupted the serving image")
	}
}

// TestMigrateRestartsOnConcurrentMutation injects a mutation between
// publish and cutover; the migrator must detect the stale epoch, restart
// once, and the migrated image must contain the mutation.
func TestMigrateRestartsOnConcurrentMutation(t *testing.T) {
	_, store, target := migrationFixture(t, 20)

	// The hook fires before the first group rebuild of the first attempt
	// — after the old image was published — with no store lock held.
	defer faults.EnableHook(faults.SiteMigrate, 1, func() {
		if _, err := store.InsertChild(
			`FOR $s IN imdb/show RETURN $s`, nil, `<aka>migration witness</aka>`); err != nil {
			t.Errorf("InsertChild during rebuild: %v", err)
		}
	})()
	rep, err := store.MigrateTo(target)
	if err != nil {
		t.Fatalf("MigrateTo: %v", err)
	}
	if rep.Restarts != 1 {
		t.Errorf("want exactly one restart, got %d (under lock: %v)", rep.Restarts, rep.RebuiltUnderLock)
	}
	if !strings.Contains(publishString(t, store), "migration witness") {
		t.Error("mutation applied mid-migration is missing from the migrated image")
	}
}

// TestMigrateFallsBackToLockedRebuild mutates on every rebuild attempt,
// exhausting the restart budget; the final attempt must rebuild under
// the write lock and still produce a correct image.
func TestMigrateFallsBackToLockedRebuild(t *testing.T) {
	_, store, target := migrationFixture(t, 10)

	// With one huge group the site alternates group (odd hits, no lock
	// held) and cutover (even hits, write lock held — must not touch the
	// store). Mutating on every odd hit invalidates every attempt.
	var muts int
	hits := 0
	defer faults.EnableHook(faults.SiteMigrate, -1, func() {
		hits++
		if hits%2 == 1 {
			muts++
			if _, err := store.InsertChild(
				`FOR $s IN imdb/show RETURN $s`, nil,
				fmt.Sprintf(`<aka>churn %d</aka>`, muts)); err != nil {
				t.Errorf("InsertChild during rebuild: %v", err)
			}
		}
	})()
	rep, err := store.MigrateTo(target, MigrateOptions{TablesPerGroup: 1 << 20, MaxRestarts: 2})
	if err != nil {
		t.Fatalf("MigrateTo: %v", err)
	}
	if rep.Restarts != 2 || !rep.RebuiltUnderLock {
		t.Errorf("want 2 restarts then a locked rebuild, got %+v", rep)
	}
	pub := publishString(t, store)
	for i := 1; i <= muts; i++ {
		if !strings.Contains(pub, fmt.Sprintf("churn %d", i)) {
			t.Errorf("mutation %d missing from the migrated image", i)
		}
	}
	if store.PSchema() != target.PSchema() {
		t.Error("locked rebuild did not install the target configuration")
	}
}

// TestMigrateUnderConcurrentReads runs a live migration while reader
// goroutines hammer the store with ad-hoc and prepared queries: zero
// errors allowed, and the image must be byte-identical afterwards.
// Run under -race in CI.
func TestMigrateUnderConcurrentReads(t *testing.T) {
	_, store, target := migrationFixture(t, 30)
	prePub := publishString(t, store)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	report := func(op string, err error) {
		select {
		case errs <- fmt.Errorf("%s: %w", op, err):
		default:
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pq, err := store.Prepare(`FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title`)
			if err != nil {
				report("Prepare", err)
				return
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				year := fmt.Sprint(1990 + (g*31+i)%20)
				if _, err := pq.Run(Params{"c1": year}); err != nil {
					report("Run", err)
					return
				}
				if _, err := store.Query(
					`FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title, $v/year`,
					Params{"c1": year}); err != nil {
					report("Query", err)
					return
				}
			}
		}(g)
	}

	rep, err := store.MigrateTo(target, MigrateOptions{TablesPerGroup: 2})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("MigrateTo under read load: %v", err)
	}
	select {
	case e := <-errs:
		t.Fatalf("reader failed during migration: %v", e)
	default:
	}
	if rep.Restarts != 0 {
		t.Errorf("pure read load must not invalidate the rebuild: %+v", rep)
	}
	if publishString(t, store) != prePub {
		t.Error("image not byte-identical after migration under read load")
	}
}

// TestMigrateUnderConcurrentWrites races a migration against live
// mutations and readers. Whatever path the migrator takes (restarts or
// the locked fallback), no operation may fail and every mutation applied
// before and during the migration must survive into the final image.
// Run under -race in CI.
func TestMigrateUnderConcurrentWrites(t *testing.T) {
	_, store, target := migrationFixture(t, 20)
	// Pin the writer to a year that exists in the generated document so
	// the inserts actually land.
	yr, err := store.Query(`FOR $v IN imdb/show RETURN $v/year`, nil)
	if err != nil || len(yr.Rows) == 0 {
		t.Fatalf("no shows to mutate: %v", err)
	}
	year := fmt.Sprint(yr.Rows[0][0])

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	report := func(op string, err error) {
		select {
		case errs <- fmt.Errorf("%s: %w", op, err):
		default:
		}
	}
	// The writer is bounded: an unbounded insert loop racing a
	// restarting migration grows the document set (and each rebuild)
	// without limit.
	const maxInserts = 50
	var inserted int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < maxInserts; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n, err := store.InsertChild(
				`FOR $s IN imdb/show WHERE $s/year = c1 RETURN $s`,
				Params{"c1": year},
				fmt.Sprintf(`<aka>live %d</aka>`, i))
			if err != nil {
				report("InsertChild", err)
				return
			}
			if n > 0 {
				inserted++
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := store.Query(
					`FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title`,
					Params{"c1": fmt.Sprint(1990 + i%20)}); err != nil {
					report("Query", err)
					return
				}
			}
		}(g)
	}

	rep, err := store.MigrateTo(target, MigrateOptions{MaxRestarts: 2})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("MigrateTo under write load: %v", err)
	}
	select {
	case e := <-errs:
		t.Fatalf("operation failed during migration: %v", e)
	default:
	}
	if store.PSchema() != target.PSchema() {
		t.Error("migration under write load did not install the target")
	}
	// Every acknowledged insert — before, during, or after the cutover —
	// must be durable in the final image.
	pub := publishString(t, store)
	for i := 0; i < inserted; i++ {
		if !strings.Contains(pub, fmt.Sprintf("<aka>live %d</aka>", i)) {
			t.Errorf("acknowledged insert %d of %d missing after migration (report: %+v)", i, inserted, rep)
			break
		}
	}
	if _, err := store.Query(`FOR $v IN imdb/show RETURN $v/title`, nil); err != nil {
		t.Errorf("query after migration: %v", err)
	}
}
