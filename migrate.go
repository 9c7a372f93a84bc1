package legodb

import (
	"fmt"
	"log/slog"
	"time"

	"legodb/internal/engine"
	"legodb/internal/faults"
	"legodb/internal/optimizer"
	"legodb/internal/relational"
	"legodb/internal/shred"
	"legodb/internal/xmltree"
	"legodb/internal/xschema"
)

// Live migration: rebuild the store's relational image under a new
// advised configuration while the old image keeps serving, then cut over
// under the store's write lock. The rebuild is publish-from-old +
// shred-into-new — the round-trip pair the tests already prove lossless
// — performed table-group-by-table-group with targeted shredding
// (shred.Shredder.Restrict), entirely off the serving path: queries and
// mutations only ever contend with the final cutover swap, which is a
// pointer exchange.
//
// Consistency against concurrent mutations uses the store's mutation
// epoch: the migrator records it when publishing the old image and
// re-checks it at cutover. A mismatch means traffic changed the
// documents mid-rebuild, so the stale image is discarded and the rebuild
// restarts; after MaxRestarts futile attempts the final rebuild runs
// while holding the write lock (correctness over availability under
// pathological churn). A failed or aborted migration — including one
// killed by the faults.SiteMigrate failpoint at any group boundary or at
// cutover itself — leaves the old image untouched and serving.

// MigrateOptions tunes a live migration; the zero value uses the
// defaults noted per field.
type MigrateOptions struct {
	// TablesPerGroup is the number of new-catalog tables rebuilt per
	// targeted shredding pass (default 4). The SiteMigrate failpoint
	// fires once before each group and once at cutover.
	TablesPerGroup int
	// MaxRestarts bounds how many times the migration restarts after a
	// concurrent mutation invalidated the rebuilt image (default 3)
	// before falling back to rebuilding under the write lock.
	MaxRestarts int
}

func (o MigrateOptions) withDefaults() MigrateOptions {
	if o.TablesPerGroup <= 0 {
		o.TablesPerGroup = 4
	}
	if o.MaxRestarts <= 0 {
		o.MaxRestarts = 3
	}
	return o
}

// MigrateReport describes a completed migration.
type MigrateReport struct {
	// Groups is the number of table groups rebuilt by the winning
	// attempt.
	Groups int
	// Documents is the number of documents re-shredded.
	Documents int
	// Restarts counts attempts invalidated by concurrent mutations.
	Restarts int
	// RebuiltUnderLock is true when restart attempts were exhausted and
	// the final rebuild ran while holding the store's write lock.
	RebuiltUnderLock bool
	// Cutover is how long the write lock was held for the swap (or for
	// the whole locked rebuild when RebuiltUnderLock).
	Cutover time.Duration
}

// MigrateTo rebuilds the store under an advised configuration and cuts
// over live. On any error — shredding failure, injected fault, panic —
// the store is left exactly as it was, still serving the old image.
func (s *Store) MigrateTo(a *Advice, opts ...MigrateOptions) (rep *MigrateReport, err error) {
	var o MigrateOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	o = o.withDefaults()
	defer func() {
		// A panic anywhere in the rebuild must not take the store down
		// with it: nothing is installed until the cutover swap, so
		// recovering here leaves the old image serving.
		if p := recover(); p != nil {
			rep, err = nil, fmt.Errorf("legodb: migrate: panic: %v", p)
		}
	}()
	newPS := a.result.Best.Schema
	if newPS == nil || a.result.Best.Catalog == nil {
		return nil, fmt.Errorf("legodb: migrate: advice carries no materialized configuration")
	}
	// The new image is built with the indexes the observed workload asks
	// for under the new configuration, so the cutover installs them with
	// the tables: nothing is built or dropped under the write lock.
	newCat := a.result.Best.Catalog.Clone()
	observed, _ := s.obs.workload()
	newCat.SetIndexes(optimizer.ChooseIndexes(newCat, translateWorkload(observed, newPS, newCat)))
	rep = &MigrateReport{}
	for attempt := 0; ; attempt++ {
		newDB, docs, epoch, err := s.rebuildOffline(newPS, newCat, o.TablesPerGroup, rep)
		if err != nil {
			return nil, err
		}
		final := attempt >= o.MaxRestarts
		done, err := s.tryCutover(newPS, newCat, newDB, epoch, final, rep)
		if err != nil {
			return nil, err
		}
		if done {
			if !rep.RebuiltUnderLock {
				rep.Documents = docs
			}
			if refs := newCat.Indexes(); len(refs) > 0 {
				slog.Info("legodb: index set after migration", "indexes", indexNames(refs))
			}
			return rep, nil
		}
		// Concurrent traffic mutated the documents after we published
		// them: the rebuilt image is stale. Rebuild and try again.
		rep.Restarts++
	}
}

// tryCutover takes the write lock and installs the rebuilt database if
// the mutation epoch still matches. On a mismatch it reports not-done
// (the caller restarts) — unless final, in which case it rebuilds right
// there under the write lock, so no mutation can slip in, and installs
// that. The lock is released by defer so an injected panic at the
// cutover failpoint unwinds cleanly (recovered in MigrateTo, store
// untouched and unlocked).
func (s *Store) tryCutover(ps *xschema.Schema, cat *relational.Catalog, db *engine.Database, epoch uint64, final bool, rep *MigrateReport) (bool, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := faults.Inject(faults.SiteMigrate); err != nil {
		return false, fmt.Errorf("legodb: migrate cutover: %w", err)
	}
	if s.mutEpoch != epoch {
		if !final {
			return false, nil
		}
		// Restart budget exhausted: correctness over availability.
		freshDocs, err := s.publisher.PublishAll()
		if err != nil {
			return false, fmt.Errorf("legodb: migrate locked rebuild: %w", err)
		}
		lockedDB := engine.NewDatabase(cat)
		sh := shred.New(ps, cat, lockedDB)
		for _, d := range freshDocs {
			if err := sh.Shred(d); err != nil {
				return false, fmt.Errorf("legodb: migrate locked rebuild: %w", err)
			}
		}
		rep.RebuiltUnderLock = true
		rep.Documents = len(freshDocs)
		db = lockedDB
	}
	s.swapLocked(ps, cat, db)
	rep.Cutover = time.Since(start)
	return true, nil
}

// rebuildOffline publishes the old image (under the read lock, so
// serving continues) and rebuilds it into a fresh database under the new
// configuration, one table group at a time. Each group pass shreds the
// full document set into its own staging database with materialization
// restricted to the group's tables: ids are allocated identically in
// every pass (NextID burns whether or not a row is kept), so the merged
// image is byte-identical to a single unrestricted shred.
func (s *Store) rebuildOffline(ps *xschema.Schema, cat *relational.Catalog, perGroup int, rep *MigrateReport) (*engine.Database, int, uint64, error) {
	s.mu.RLock()
	epoch := s.mutEpoch
	docs, err := s.publisher.PublishAll()
	s.mu.RUnlock()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("legodb: migrate publish: %w", err)
	}
	newDB := engine.NewDatabase(cat)
	groups := 0
	for i := 0; i < len(cat.Order); i += perGroup {
		end := i + perGroup
		if end > len(cat.Order) {
			end = len(cat.Order)
		}
		group := cat.Order[i:end]
		if err := faults.Inject(faults.SiteMigrate); err != nil {
			return nil, 0, 0, fmt.Errorf("legodb: migrate group %v: %w", group, err)
		}
		if err := shredGroup(ps, cat, docs, group, newDB); err != nil {
			return nil, 0, 0, err
		}
		groups++
	}
	rep.Groups = groups
	return newDB, len(docs), epoch, nil
}

// shredGroup rebuilds one table group: a restricted shred of every
// document into a staging database, then a merge of just the group's
// tables (rows and key allocators) into dst.
func shredGroup(ps *xschema.Schema, cat *relational.Catalog, docs []*xmltree.Node, group []string, dst *engine.Database) error {
	staging := engine.NewDatabase(cat)
	sh := shred.New(ps, cat, staging)
	sh.Restrict = make(map[string]bool, len(group))
	for _, name := range group {
		sh.Restrict[name] = true
	}
	for _, d := range docs {
		if err := sh.Shred(d); err != nil {
			return fmt.Errorf("legodb: migrate reshred: %w", err)
		}
	}
	for _, name := range group {
		st := staging.Table(name)
		t := dst.Table(name)
		// Insert copies the row into t's columns, so one buffer carries
		// every position across.
		row := make(engine.Row, len(t.Def.Columns))
		for pos, n := 0, st.NumRows(); pos < n; pos++ {
			for ci := range row {
				row[ci] = st.Cell(pos, ci)
			}
			if err := t.Insert(row); err != nil {
				return fmt.Errorf("legodb: migrate merge %s: %w", name, err)
			}
		}
		t.SetNextID(st.PeekNextID())
	}
	return nil
}

// swapLocked installs the new configuration; the caller holds the write
// lock. The accumulated counters carry over, and the
// workload observer and the prepared texts are untouched — observation
// is a property of the traffic, not the storage layout — but the
// prepared texts' translations and plans go with the old image.
func (s *Store) swapLocked(ps *xschema.Schema, cat *relational.Catalog, db *engine.Database) {
	s.prepared.dropSnapshots()
	db.Stats = s.db.Measured()
	s.schema = ps
	s.catalog = cat
	s.db = db
	s.shredder = shred.New(ps, cat, db)
	s.publisher = shred.NewPublisher(ps, cat, db)
	s.opt = optimizer.New(cat)
}
