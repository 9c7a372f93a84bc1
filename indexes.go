package legodb

import (
	"log/slog"
	"slices"

	"legodb/internal/optimizer"
	"legodb/internal/relational"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
)

// Secondary indexes are part of the physical design and are chosen the
// way the configuration is: by the cost model, from a workload
// (optimizer.ChooseIndexes). An Advice chooses them for its declared
// workload, lazily and outside the search — costs, traces and the
// advised configuration stay those of the paper's key-only model — and
// seeds the store it opens with them. A Store then re-chooses from the
// workload it observes, every time the observer completes a generation
// and again when it migrates, so it indexes what it is actually asked
// and pays on writes what the model said.
//
// The flags live on the store's own clone of the catalog, never on the
// advised one: that catalog is shared with the search's cost caches. The
// index set is derived state — snapshots do not carry it, and a reopened
// store re-learns it within one observer generation.

// translateWorkload binds a workload to one configuration for the index
// chooser. Entries that do not translate against it are left out: a
// shape observed under one configuration need not exist in another.
func translateWorkload(w *xquery.Workload, ps *xschema.Schema, cat *relational.Catalog) optimizer.TranslatedWorkload {
	var tw optimizer.TranslatedWorkload
	for _, e := range w.Entries {
		if sq, err := xquery.Translate(e.Query, ps, cat); err == nil {
			if sq.Name == "" {
				sq.Name = e.Query.String() // observed shapes carry no report name
			}
			tw.Queries = append(tw.Queries, optimizer.WeightedQuery{Query: sq, Weight: e.Weight})
		}
	}
	for _, u := range w.Updates {
		if targets, err := xquery.ResolveUpdate(u.Update, ps, cat); err == nil {
			tw.Updates = append(tw.Updates, optimizer.WeightedUpdate{Update: u.Update, Targets: targets, Weight: u.Weight})
		}
	}
	return tw
}

func indexNames(refs []relational.IndexRef) []string {
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = r.String()
	}
	return out
}

// Indexes lists the secondary indexes the cost model chooses for the
// advised configuration under the declared workload, as table.column in
// catalog order. The chooser runs on first use, never inside Advise.
func (a *Advice) Indexes() []string { return indexNames(a.chosenIndexes()) }

func (a *Advice) chosenIndexes() []relational.IndexRef {
	a.indexOnce.Do(func() {
		ps, cat := a.result.Best.Schema, a.result.Best.Catalog
		if ps == nil || cat == nil || a.workload == nil {
			return
		}
		a.indexes = optimizer.ChooseIndexes(cat, translateWorkload(a.workload, ps, cat))
	})
	return a.indexes
}

// indexedCatalog returns a private copy of the advised catalog carrying
// the chosen indexes.
func (a *Advice) indexedCatalog() *relational.Catalog {
	cat := a.result.Best.Catalog.Clone()
	cat.SetIndexes(a.chosenIndexes())
	return cat
}

// Indexes lists the store's current secondary indexes as table.column in
// catalog order.
func (s *Store) Indexes() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return indexNames(s.catalog.Indexes())
}

// IndexRetunes counts how often the store changed its index set.
func (s *Store) IndexRetunes() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.indexRetunes
}

// retuneIndexes re-runs the index chooser on the observed workload and,
// only if the chosen set differs from the installed one, builds and
// drops indexes under the write lock. The choosing itself runs under the
// read lock, beside serving; a retune already in flight is not doubled.
func (s *Store) retuneIndexes() {
	if !s.retuneMu.TryLock() {
		return
	}
	defer s.retuneMu.Unlock()
	w, _ := s.obs.workload()

	s.mu.RLock()
	cat := s.catalog
	tw := translateWorkload(w, s.schema, cat)
	chosen := optimizer.ChooseIndexes(cat, tw)
	current := cat.Indexes()
	s.mu.RUnlock()
	if slices.Equal(chosen, current) {
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.catalog != cat {
		return // a migration cut over meanwhile and chose for itself
	}
	if err := s.installIndexesLocked(chosen); err != nil {
		slog.Error("legodb: index retune failed", "error", err)
		return
	}
	s.indexRetunes++
	slog.Info("legodb: index set changed",
		"indexes", indexNames(chosen), "was", indexNames(current),
		"shapes", causingShapes(tw, chosen, current))
}

// installIndexesLocked makes refs the store's index set: engine indexes
// are built and dropped to match, then the catalog's flags (which the
// planner and the optimizer read) follow. The caller holds the write
// lock.
func (s *Store) installIndexesLocked(refs []relational.IndexRef) error {
	want := make(map[relational.IndexRef]bool, len(refs))
	for _, r := range refs {
		want[r] = true
		if err := s.db.Table(r.Table).BuildIndex(r.Column); err != nil {
			return err
		}
	}
	for _, r := range s.catalog.Indexes() {
		if !want[r] {
			s.db.Table(r.Table).DropIndex(r.Column)
		}
	}
	s.catalog.SetIndexes(refs)
	return nil
}

// causingShapes names the workload queries that select or join on a
// column whose index was added or dropped.
func causingShapes(tw optimizer.TranslatedWorkload, chosen, current []relational.IndexRef) []string {
	changed := make(map[relational.IndexRef]bool)
	for _, r := range chosen {
		changed[r] = true
	}
	for _, r := range current {
		changed[r] = !changed[r]
	}
	var out []string
	for _, wq := range tw.Queries {
		if slices.ContainsFunc(optimizer.AccessColumns(wq.Query), func(r relational.IndexRef) bool { return changed[r] }) {
			out = append(out, wq.Query.Name)
		}
	}
	return out
}
