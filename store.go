package legodb

import (
	"context"
	"io"
	"sync"

	"legodb/internal/core"
	"legodb/internal/engine"
	"legodb/internal/optimizer"
	"legodb/internal/relational"
	"legodb/internal/shred"
	"legodb/internal/xmltree"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
)

// Store is an instantiated storage configuration: an in-memory relational
// database following the chosen mapping, with document loading, XQuery
// execution and publishing.
//
// A Store is safe for concurrent use: queries, prepared executions,
// publishing and stats reads run concurrently with each other, while
// mutations (Load, InsertChild, DeleteWhere) and executor-mode flips are
// serialized against them under a readers-writer lock — the serving
// layer's contract (one store per tenant, many concurrent requests).
type Store struct {
	// mu is the store's readers-writer lock: queries, publishing and
	// stats reads share it, mutations take it exclusively. The engine
	// below is safe for concurrent reads but not for reads racing writes.
	mu     sync.RWMutex
	schema *xschema.Schema
	// catalog is the store's own copy of its configuration's catalog:
	// it carries the store's secondary-index flags, which change under
	// the write lock as the observed workload does (see indexes.go).
	catalog   *relational.Catalog
	db        *engine.Database
	shredder  *shred.Shredder
	publisher *shred.Publisher
	opt       *optimizer.Optimizer

	// mutEpoch counts mutations (loads, deletes, inserts). A live
	// migration records it when publishing the old image and re-checks it
	// at cutover: a mismatch means the rebuilt image is stale and the
	// migration restarts instead of installing it.
	mutEpoch uint64

	// obs accumulates the observed workload from served traffic; it has
	// its own lock and survives migration (observation is a property of
	// the traffic, not of the storage configuration).
	obs *workloadObserver

	// retuneMu admits one index retune at a time; indexRetunes (under mu)
	// counts the ones that changed the index set.
	retuneMu     sync.Mutex
	indexRetunes uint64

	// prepared holds the store's prepared queries by request text (see
	// Prepare); it has its own lock and survives migration.
	prepared preparedCache
}

// Open instantiates the advised configuration as an empty store, with
// the secondary indexes chosen for the declared workload (see
// Advice.Indexes); the store re-chooses them from what it observes.
func (a *Advice) Open() (*Store, error) {
	return openStore(a.result.Best.Schema, a.indexedCatalog())
}

// openStore builds an empty store over a catalog it takes ownership of.
func openStore(ps *xschema.Schema, cat *relational.Catalog) (*Store, error) {
	db := engine.NewDatabase(cat)
	return &Store{
		schema:    ps,
		catalog:   cat,
		db:        db,
		shredder:  shred.New(ps, cat, db),
		publisher: shred.NewPublisher(ps, cat, db),
		opt:       optimizer.New(cat),
		obs:       newWorkloadObserver(),
	}, nil
}

// Load shreds a document into the store. Documents must validate against
// the engine's schema.
func (s *Store) Load(doc *xmltree.Node) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mutEpoch++
	return s.shredder.Shred(doc)
}

// LoadXML parses and loads an XML document from a reader.
func (s *Store) LoadXML(r io.Reader) error {
	doc, err := xmltree.Parse(r)
	if err != nil {
		return err
	}
	return s.Load(doc)
}

// Params binds query parameters (c1, c2, ...) to values. A value
// converts to the type of each column it is compared with: verbatim
// against a string column (so "007" matches a CHAR column storing "007"),
// and against an INT column as the integer it spells, surrounding space
// allowed; a value that spells none matches no row there, under any
// operator.
type Params map[string]string

// values hands the parameters to the engine as strings; the engine
// converts each at every comparison site (see Params).
func (p Params) values() engine.Params {
	out := make(engine.Params, len(p))
	for k, v := range p {
		out[k] = engine.StrVal(v)
	}
	return out
}

// Result is a query result: column headers and stringified rows.
type Result struct {
	Columns []string
	Rows    [][]string
}

// Query prepares (see Prepare) and executes an XQuery against the store.
func (s *Store) Query(text string, params Params) (*Result, error) {
	return s.QueryContext(context.Background(), text, params)
}

// QueryContext is Query under a caller-controlled context: cancelling
// ctx (or exceeding its deadline) aborts the execution mid-plan with the
// context's error, so a served request's timeout actually stops engine
// work instead of letting it run to completion.
func (s *Store) QueryContext(ctx context.Context, text string, params Params) (*Result, error) {
	p, err := s.Prepare(text)
	if err != nil {
		return nil, err
	}
	return p.RunContext(ctx, params)
}

// Publish reconstructs all loaded documents.
func (s *Store) Publish() ([]*xmltree.Node, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.publisher.PublishAll()
}

// DDL returns the store's relational schema: its tables. The index set
// is derived state that follows the traffic; Indexes lists it.
func (s *Store) DDL() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.catalog.SQL()
}

// PSchema renders the store's current physical schema in algebra
// notation (statistics annotations included) — comparable against
// Advice.PSchema to tell whether an advised configuration is already
// installed.
func (s *Store) PSchema() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.schema.String()
}

// Documents reports the number of loaded documents (live rows of the
// root type's relation; 0 when the root relation does not exist).
func (s *Store) Documents() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.db.Table(s.catalog.TableOf[s.schema.Root])
	if t == nil {
		return 0
	}
	return t.LiveRows()
}

// TableRows reports the number of live rows stored in a relation (-1
// when the relation does not exist).
func (s *Store) TableRows(name string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.db.Table(name)
	if t == nil {
		return -1
	}
	return t.LiveRows()
}

// Tables lists the store's relations in creation order.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.catalog.Order...)
}

// Measured returns the engine's accumulated execution counters (bytes
// read, tuples, probes) since the store was opened.
func (s *Store) Measured() engine.Counters {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db.Measured()
}

// EstimatedCost prices the store's current physical schema under a
// workload (typically the observed one) with the optimizer's cost model,
// through eng's cost cache — the "is the installed configuration still
// the right one?" half of the adaptation loop's comparison. documents
// is the stored document count (0 = 1).
func (s *Store) EstimatedCost(eng *Engine, w *xquery.Workload, documents float64) (float64, error) {
	s.mu.RLock()
	ps := s.schema
	s.mu.RUnlock()
	if documents == 0 {
		documents = 1
	}
	return core.GetPSchemaCostWith(ps, w, documents, nil, eng.snapshotCache())
}

// TotalRows sums live rows over the store's relations.
func (s *Store) TotalRows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db.RowCount()
}
