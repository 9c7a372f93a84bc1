package legodb

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"legodb/internal/engine"
	"legodb/internal/relational"
	"legodb/internal/sqlast"
	"legodb/internal/xquery"
)

// Prepared plans: a served workload is a fixed set of parameterized query
// texts, so a store keeps what a text costs to get ready — its parse, its
// observation key, its translation and its engine plan — and a request pays only for its own execution.
//
// A translation depends on the configuration alone (the catalog a
// migration swaps); an engine plan also depends on the index set, which
// a retune changes in place on the same catalog. The two are checked
// apart: a retune re-plans, a migration re-translates.

// preparedCacheSize bounds the prepared queries a store keeps; the
// oldest goes first.
const preparedCacheSize = 256

// preparedTextMax is the longest text a store keeps prepared: the bound
// on entries is then a bound on memory too, whatever clients send.
const preparedTextMax = 16 << 10

// PreparedQuery is a parsed query, reusable with different parameters.
// Store.Prepare hands out one shared instance per text, safe for
// concurrent use: runs load an immutable snapshot of its translation and
// engine plan, and the first run after a migration or an index retune
// replaces that snapshot for every holder.
type PreparedQuery struct {
	store *Store
	q     *xquery.Query
	// shape is the parsed query with its report name stripped, and key the
	// text each successful execution is observed under (see queryShape).
	shape *xquery.Query
	key   string

	// snap is the current snapshot (nil until the first prepare, and again
	// after a migration). planMu serializes its replacement only: a run
	// that finds it current takes no lock.
	snap   atomic.Pointer[preparedPlan]
	planMu sync.Mutex
}

// preparedPlan is one immutable snapshot of a prepared query: the
// translation against cat and the engine plan under the physical design
// it was made in.
type preparedPlan struct {
	cat  *relational.Catalog
	sql  *sqlast.Query
	plan *engine.Plan
}

// currentFor reports whether the snapshot (nil: none) is for the
// store's current catalog and physical design.
func (pp *preparedPlan) currentFor(s *Store) bool {
	return pp != nil && pp.cat == s.catalog && pp.plan.Current(s.db)
}

// Prepare readies an XQuery for repeated execution: parsed, translated
// and planned once. Texts are kept by exact request text, so preparing
// one again returns the same instance without parsing it; a text that
// fails to prepare is not kept.
func (s *Store) Prepare(text string) (*PreparedQuery, error) {
	p := s.prepared.get(text)
	fresh := p == nil
	if fresh {
		q, err := xquery.Parse(text)
		if err != nil {
			return nil, err
		}
		shape, key := queryShape(q)
		p = &PreparedQuery{store: s, q: q, shape: shape, key: key}
	}
	// Kept under the read lock, so a migration's cutover either precedes
	// the snapshot or drops it with the rest.
	s.mu.RLock()
	_, err := p.currentLocked()
	if err == nil && fresh && len(text) <= preparedTextMax {
		p = s.prepared.add(text, p)
	}
	s.mu.RUnlock()
	if err != nil {
		// A kept text that no longer translates (the configuration moved
		// under it) fails here, where a new text would, and is let go.
		s.prepared.remove(text, p)
		return nil, err
	}
	return p, nil
}

// currentLocked returns the snapshot for the store's current
// configuration and physical design, replacing a stale one: a new
// catalog re-translates, a new index set only re-plans. The caller holds
// the store's read lock, pinning both for the duration.
func (p *PreparedQuery) currentLocked() (*preparedPlan, error) {
	s := p.store
	if pp := p.snap.Load(); pp.currentFor(s) {
		return pp, nil
	}
	p.planMu.Lock()
	defer p.planMu.Unlock()
	pp := p.snap.Load()
	if pp.currentFor(s) {
		return pp, nil // replaced while we waited
	}
	next := &preparedPlan{cat: s.catalog}
	if pp != nil && pp.cat == s.catalog {
		next.sql = pp.sql
	} else {
		sq, err := xquery.Translate(p.q, s.schema, s.catalog)
		if err != nil {
			return nil, err
		}
		next.sql = sq
	}
	plan, err := s.db.Plan(next.sql)
	if err != nil {
		return nil, err
	}
	next.plan = plan
	p.snap.Store(next)
	return next, nil
}

// SQL returns the prepared query's translated SQL for the store's
// current configuration ("" when it no longer translates).
func (p *PreparedQuery) SQL() string {
	p.store.mu.RLock()
	defer p.store.mu.RUnlock()
	pp, err := p.currentLocked()
	if err != nil {
		return ""
	}
	return pp.sql.SQL()
}

// Run executes the prepared query with the given parameters.
func (p *PreparedQuery) Run(params Params) (*Result, error) {
	return p.RunContext(context.Background(), params)
}

// RunContext executes the prepared query under a caller-controlled
// context (see Store.QueryContext).
func (p *PreparedQuery) RunContext(ctx context.Context, params Params) (*Result, error) {
	rs, err := p.RunValues(ctx, params)
	if err != nil {
		return nil, err
	}
	out := &Result{Columns: rs.Columns}
	for _, row := range rs.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out.Rows = append(out.Rows, cells)
	}
	return out, nil
}

// RunValues is RunContext without rendering the rows as strings: the
// engine's result set, every cell a typed engine.Value. It is RunTo
// with a collecting sink.
func (p *PreparedQuery) RunValues(ctx context.Context, params Params) (*engine.ResultSet, error) {
	var c engine.Collector
	if err := p.RunTo(ctx, params, &c); err != nil {
		return nil, err
	}
	return c.Result(), nil
}

// RunTo executes the prepared query and hands its answer to sink as the
// engine projects it (see engine.RowSink): a caller that encodes the
// answer itself (the /query handler) never holds it as rows. The sink
// runs under the store's read lock, because an Insert may reallocate
// the columns its cells are read from: it must not keep a row past the
// call it got it in, nor call back into the store. On an error what
// the sink received is no answer.
func (p *PreparedQuery) RunTo(ctx context.Context, params Params, sink engine.RowSink) error {
	s := p.store
	if err := p.runLocked(ctx, params, sink); err != nil {
		return err
	}
	// Record the observation outside the serving lock: a successful
	// execution is one vote for this query shape in the observed
	// workload, and a completed observer generation is when the store
	// asks the cost model whether its indexes still fit it.
	if s.obs.observeQuery(p.shape, p.key) {
		s.retuneIndexes()
	}
	return nil
}

// runLocked executes the prepared query into sink under the store's
// read lock, released however the execution ends: a panic in the
// executor or in the sink must not leave writers locked out.
func (p *PreparedQuery) runLocked(ctx context.Context, params Params, sink engine.RowSink) error {
	s := p.store
	s.mu.RLock()
	defer s.mu.RUnlock()
	pp, err := p.currentLocked()
	if err != nil {
		return err
	}
	return s.db.ExecutePlanTo(ctx, pp.plan, params.values(), sink)
}

// ExplainQuery prepares an XQuery and returns its SQL together with the
// optimizer's cost estimate and, per SPJ block, the plan it priced — the
// start relation's access path ("index(Show.title)" or "scan") and the
// join algorithm of every step — and beneath it, marked "executes:", the
// plan the engine runs: the prepared plan itself, with its own join
// order, access paths and fused hash keys ("hash t5 [+title]"), and the
// aliases it leaves out because parent keys imply their joins
// ("scan t3 (t1 t2 implied by parent keys)"). Both read the store's
// current index set.
func (s *Store) ExplainQuery(text string) (string, error) {
	p, err := s.Prepare(text)
	if err != nil {
		return "", err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	pp, err := p.currentLocked()
	if err != nil {
		return "", err
	}
	est, err := s.opt.QueryCost(pp.sql)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n-- estimated cost: %.1f, rows: %.0f\n", pp.sql.SQL(), est.Cost, est.Rows)
	plans := strings.Split(est.Plan, " UNION ")
	for i := range pp.sql.Blocks {
		fmt.Fprintf(&b, "-- block %d: %s\n--   executes: %s\n", i+1, plans[i], pp.plan.ExplainBlock(i))
	}
	return b.String(), nil
}

// preparedCache maps request texts to their prepared queries, at most
// preparedCacheSize of them, first in first out.
type preparedCache struct {
	mu      sync.Mutex
	entries map[string]*PreparedQuery
	fifo    []string // the entries' texts, oldest first
}

func (c *preparedCache) get(text string) *PreparedQuery {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[text]
}

// add keeps p for text, evicting the oldest entry when full, and returns
// the instance now kept: the one a racing Prepare of the same text kept
// first, if any.
func (c *preparedCache) add(text string, p *PreparedQuery) *PreparedQuery {
	c.mu.Lock()
	defer c.mu.Unlock()
	if kept := c.entries[text]; kept != nil {
		return kept
	}
	if c.entries == nil {
		c.entries = make(map[string]*PreparedQuery, preparedCacheSize)
	}
	if len(c.fifo) == preparedCacheSize {
		delete(c.entries, c.fifo[0])
		c.fifo = slices.Delete(c.fifo, 0, 1)
	}
	c.entries[text] = p
	c.fifo = append(c.fifo, text)
	return p
}

// remove lets go of text's entry if it is still p.
func (c *preparedCache) remove(text string, p *PreparedQuery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[text] == p {
		delete(c.entries, text)
		c.fifo = slices.DeleteFunc(c.fifo, func(t string) bool { return t == text })
	}
}

// dropSnapshots forgets every kept query's translation and plan, so none
// pins a configuration the store has left; each re-prepares on its next
// use. The caller holds the store's write lock.
func (c *preparedCache) dropSnapshots() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.entries {
		p.snap.Store(nil)
	}
}
