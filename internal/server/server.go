// Package server is legodbd's resident serving layer: a fleet of
// per-tenant legodb.Engines and loaded Stores held in memory behind an
// HTTP/JSON API, sharing one cost-cache Registry. Robustness under
// concurrent traffic is the design center, in four layers:
//
//   - Admission control: a bounded-concurrency slot semaphore with a
//     small wait queue. A request that cannot get a slot within the
//     queue budget is shed with 429 + Retry-After instead of piling up,
//     and each tenant has its own in-flight cap so one hot tenant
//     cannot starve the rest.
//   - Deadlines: every data-plane request runs under a context deadline
//     plumbed down to the engine's executor loops, so a timed-out or
//     client-cancelled request stops consuming engine work mid-plan.
//   - Panic isolation: a recovered handler panic becomes a structured
//     500 and a log line; the server keeps serving.
//   - Graceful drain: BeginDrain stops admitting (503), in-flight
//     requests finish under the drain deadline, and the registry's cost
//     cache is snapshotted with the framed+CRC format. At boot a
//     corrupt snapshot is quarantined to path+".corrupt" and the server
//     starts cold instead of refusing to start.
//
// The admission state machine per request:
//
//	draining? ──yes──► 503
//	   │no
//	slot free? ──yes──► admitted
//	   │no
//	queue full? ──yes──► 429 (shed)
//	   │no
//	wait ≤ QueueWait ──slot──► admitted
//	   │timeout                  │
//	   ▼                         ▼
//	 429 (shed)        tenant over cap? ──yes──► 429 (shed)
//	                             │no
//	                             ▼
//	                      handler (deadline, panic guard)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"legodb"
	"legodb/internal/adapt"
	"legodb/internal/faults"
	"legodb/internal/xmltree"
)

// Config tunes the server; the zero value serves with the defaults
// noted per field.
type Config struct {
	// MaxInflight bounds concurrently admitted data-plane requests
	// (default 64).
	MaxInflight int
	// QueueDepth bounds requests waiting for a slot beyond MaxInflight
	// before shedding starts (0 = default 2×MaxInflight, negative = no
	// queue: saturation sheds immediately).
	QueueDepth int
	// QueueWait bounds how long a queued request waits for a slot before
	// it is shed (default 100ms).
	QueueWait time.Duration
	// RequestTimeout is the per-request execution deadline (default 5s).
	// A request may ask for less via timeout_ms, never for more.
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful drain: in-flight requests get
	// this long to finish after drain starts (default 10s).
	DrainTimeout time.Duration
	// PerTenantInflight caps one tenant's admitted requests (default
	// MaxInflight, i.e. no per-tenant throttling beyond the global cap).
	PerTenantInflight int
	// SnapshotPath persists the registry's cost cache: loaded leniently
	// at boot (missing = cold, corrupt = quarantined + cold), saved on
	// drain. Empty = no persistence.
	SnapshotPath string
	// StoreDir persists tenant stores as column-chunked snapshots
	// (<dir>/<tenant>.store): a tenant whose snapshot exists reopens it
	// instead of advising a fresh empty store (corrupt snapshots are
	// quarantined and the tenant starts empty), and every tenant's
	// store is saved on drain. Empty = stores live and die in memory.
	StoreDir string
	// AdviseIterations bounds the greedy search run when a tenant is
	// created with an advised configuration (default 3).
	AdviseIterations int
	// AdaptInterval enables the adaptation auto mode: every interval,
	// each tenant's controller checks observed-workload drift and — when
	// the hysteresis gates open and a cheaper configuration is found —
	// migrates the store live. 0 disables the loop; POST
	// /tenants/{t}/readvise triggers a check manually either way.
	AdaptInterval time.Duration
	// Adapt tunes the per-tenant adaptation controllers (drift
	// threshold, cost margin, search budget); the zero value uses the
	// adapt package defaults.
	Adapt adapt.Config
	// Logger receives structured serving logs (default: text to stderr).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.MaxInflight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.PerTenantInflight <= 0 {
		c.PerTenantInflight = c.MaxInflight
	}
	if c.AdviseIterations <= 0 {
		c.AdviseIterations = 3
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	return c
}

// tenant is one resident engine+store pair with its adaptation
// controller.
type tenant struct {
	name     string
	eng      *legodb.Engine
	store    *legodb.Store
	ctrl     *adapt.Controller
	inflight atomic.Int64
	served   atomic.Int64
	shed     atomic.Int64
}

// Server holds the tenant fleet and the admission machinery. Create
// with New; serve via Handler (any http.Server or test harness) or Run
// (listener + signal-driven drain).
type Server struct {
	cfg Config
	log *slog.Logger
	reg *legodb.Registry

	// slots is the admission semaphore; holding a token = admitted.
	slots   chan struct{}
	waiting atomic.Int64

	// admitMu orders admission bookkeeping against drain: admitted
	// requests register with inflightWG under the read side, BeginDrain
	// flips draining under the write side, so after BeginDrain returns
	// every in-flight request is either in inflightWG or will bounce.
	admitMu  sync.RWMutex
	draining bool

	inflightWG sync.WaitGroup
	inflight   atomic.Int64

	served   atomic.Int64
	shed     atomic.Int64
	rejected atomic.Int64
	panics   atomic.Int64
	timeouts atomic.Int64
	// bodiesHeld counts the /query buffers taken from bodyPool and not
	// yet released: every way through the handler gives its buffer back.
	bodiesHeld atomic.Int64

	tmu     sync.RWMutex
	tenants map[string]*tenant

	bootWarning string
	mux         *http.ServeMux
}

// New builds a server: a fresh cost-cache registry (warmed leniently
// from cfg.SnapshotPath when set — a corrupt snapshot is quarantined to
// path+".corrupt", logged, and the server boots cold) and the HTTP
// routes. No tenants exist yet; add them with AddTenant or POST
// /tenants.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		reg:     legodb.NewRegistry(),
		slots:   make(chan struct{}, cfg.MaxInflight),
		tenants: make(map[string]*tenant),
	}
	if cfg.StoreDir != "" {
		if err := os.MkdirAll(cfg.StoreDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: create store dir: %w", err)
		}
	}
	if cfg.SnapshotPath != "" {
		n, warning, err := s.reg.LoadSnapshotFile(cfg.SnapshotPath)
		if err != nil {
			return nil, fmt.Errorf("server: load snapshot: %w", err)
		}
		if warning != "" {
			s.bootWarning = warning
			s.log.Warn("cost-cache snapshot quarantined; starting cold", "warning", warning)
		} else if n > 0 {
			s.log.Info("cost-cache snapshot loaded", "entries", n, "path", cfg.SnapshotPath)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.guarded(s.handleHealthz))
	mux.HandleFunc("GET /stats", s.guarded(s.handleStats))
	mux.HandleFunc("POST /tenants", s.admitted(s.handleCreateTenant))
	mux.HandleFunc("POST /tenants/{tenant}/load", s.tenantFunc((*Server).handleLoad))
	mux.HandleFunc("POST /tenants/{tenant}/query", s.tenantFunc((*Server).handleQuery))
	mux.HandleFunc("POST /tenants/{tenant}/delete", s.tenantFunc((*Server).handleDelete))
	mux.HandleFunc("POST /tenants/{tenant}/insert", s.tenantFunc((*Server).handleInsert))
	mux.HandleFunc("POST /tenants/{tenant}/readvise", s.tenantFunc((*Server).handleReadvise))
	s.mux = mux
	return s, nil
}

// BootWarning reports the lenient-load warning from boot ("" when the
// snapshot was absent or loaded cleanly).
func (s *Server) BootWarning() string { return s.bootWarning }

// Registry exposes the fleet's shared cost-cache registry.
func (s *Server) Registry() *legodb.Registry { return s.reg }

// Handler returns the server's HTTP handler (admission, deadlines and
// panic isolation included), for mounting under any http.Server or
// httptest harness.
func (s *Server) Handler() http.Handler { return s.mux }

// TenantQuery is one weighted workload query of a TenantSpec.
type TenantQuery struct {
	Name   string  `json:"name"`
	Text   string  `json:"text"`
	Weight float64 `json:"weight"`
}

// TenantSpec describes a tenant to create: its schema (algebra
// notation), optional statistics, and how to choose the storage
// configuration — "advised" (the default) runs the cost-based search
// over Queries, "all-inlined"/"all-outlined" instantiate a fixed
// baseline without searching. Every config prices the workload, so at
// least one query is required.
type TenantSpec struct {
	Name      string        `json:"name"`
	Schema    string        `json:"schema"`
	Stats     string        `json:"stats,omitempty"`
	Config    string        `json:"config,omitempty"`
	Queries   []TenantQuery `json:"queries,omitempty"`
	Documents float64       `json:"documents,omitempty"`
}

// AddTenant creates a tenant: engine attached to the shared registry,
// configuration chosen per the spec, store opened empty.
func (s *Server) AddTenant(ctx context.Context, spec TenantSpec) error {
	if spec.Name == "" {
		return fmt.Errorf("server: tenant name must not be empty")
	}
	if len(spec.Queries) == 0 {
		// Both the advised search and the fixed baselines price a
		// workload; a spec without one cannot be costed.
		return fmt.Errorf("server: tenant %q: spec needs at least one workload query", spec.Name)
	}
	eng, err := s.reg.Engine(spec.Schema)
	if err != nil {
		return fmt.Errorf("server: tenant %q schema: %w", spec.Name, err)
	}
	if spec.Stats != "" {
		if err := eng.SetStatisticsText(spec.Stats); err != nil {
			return fmt.Errorf("server: tenant %q stats: %w", spec.Name, err)
		}
	}
	for _, q := range spec.Queries {
		w := q.Weight
		if w <= 0 {
			w = 1
		}
		if err := eng.AddQuery(q.Name, q.Text, w); err != nil {
			return fmt.Errorf("server: tenant %q query %q: %w", spec.Name, q.Name, err)
		}
	}
	config := spec.Config
	if config == "" {
		config = "advised"
	}
	switch config {
	case "advised", "all-inlined", "all-outlined":
	default:
		return fmt.Errorf("server: tenant %q: unknown config %q", spec.Name, spec.Config)
	}
	// A persisted store snapshot is authoritative: it carries the
	// configuration it was advised into, so reopening skips the search
	// entirely. A corrupt snapshot is quarantined by OpenStoreFile and
	// the tenant starts empty through the advise path.
	var store *legodb.Store
	if s.cfg.StoreDir != "" {
		path := s.tenantStorePath(spec.Name)
		st, err := legodb.OpenStoreFile(path)
		switch {
		case err == nil:
			store = st
			s.log.Info("tenant store reopened", "tenant", spec.Name,
				"path", path, "rows", st.TotalRows())
		case errors.Is(err, os.ErrNotExist):
			// Cold start: no snapshot yet.
		case errors.Is(err, legodb.ErrCorruptStoreSnapshot):
			s.log.Warn("tenant store snapshot quarantined; starting empty",
				"tenant", spec.Name, "error", err)
		default:
			return fmt.Errorf("server: tenant %q store: %w", spec.Name, err)
		}
	}
	if store == nil {
		var advice *legodb.Advice
		switch config {
		case "advised":
			advice, err = eng.AdviseContext(ctx, legodb.AdviseOptions{
				MaxIterations: s.cfg.AdviseIterations,
				Documents:     spec.Documents,
			})
		default:
			advice, err = eng.EvaluateFixed(config, legodb.AdviseOptions{Documents: spec.Documents})
		}
		if err != nil {
			return fmt.Errorf("server: tenant %q: %w", spec.Name, err)
		}
		store, err = advice.Open()
		if err != nil {
			return fmt.Errorf("server: tenant %q: %w", spec.Name, err)
		}
	}
	tn := &tenant{
		name:  spec.Name,
		eng:   eng,
		store: store,
		// The declared workload the configuration was just chosen for is
		// the controller's drift baseline.
		ctrl: adapt.New(eng, store, eng.Workload(), s.cfg.Adapt),
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if _, dup := s.tenants[spec.Name]; dup {
		return fmt.Errorf("server: tenant %q already exists", spec.Name)
	}
	s.tenants[spec.Name] = tn
	s.log.Info("tenant created", "tenant", spec.Name, "config", config,
		"tables", len(store.Tables()))
	return nil
}

// LoadDocument shreds a document into a tenant's store (the in-process
// twin of POST /tenants/{t}/load, used by bench and boot preloading).
func (s *Server) LoadDocument(name string, doc *xmltree.Node) error {
	tn := s.tenant(name)
	if tn == nil {
		return fmt.Errorf("server: unknown tenant %q", name)
	}
	return tn.store.Load(doc)
}

// TenantStore returns a tenant's store (nil when absent) for in-process
// harnesses.
func (s *Server) TenantStore(name string) *legodb.Store {
	if tn := s.tenant(name); tn != nil {
		return tn.store
	}
	return nil
}

func (s *Server) tenant(name string) *tenant {
	s.tmu.RLock()
	defer s.tmu.RUnlock()
	return s.tenants[name]
}

// tenantStorePath is the snapshot path for one tenant's store.
func (s *Server) tenantStorePath(name string) string {
	return filepath.Join(s.cfg.StoreDir, name+".store")
}

// saveTenantStores snapshots every tenant's store into StoreDir. Each
// SaveFile is crash-consistent on its own, so a failure (or a crash)
// mid-fleet loses at most the tenants not yet saved — never a torn
// file. The first error is returned after every tenant was attempted.
func (s *Server) saveTenantStores() error {
	s.tmu.RLock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, tn := range s.tenants {
		tenants = append(tenants, tn)
	}
	s.tmu.RUnlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	var firstErr error
	for _, tn := range tenants {
		path := s.tenantStorePath(tn.name)
		if err := tn.store.SaveFile(path); err != nil {
			s.log.Error("tenant store save failed", "tenant", tn.name, "error", err)
			if firstErr == nil {
				firstErr = fmt.Errorf("server: save tenant %q store: %w", tn.name, err)
			}
			continue
		}
		s.log.Info("tenant store saved", "tenant", tn.name, "path", path)
	}
	return firstErr
}

// ---- admission ----

func (s *Server) isDraining() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.draining
}

// guarded wraps a handler with panic isolation: a panic becomes a
// structured 500 and the server keeps serving.
func (s *Server) guarded(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				s.log.Error("request panic recovered", "path", r.URL.Path,
					"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				writeJSON(w, http.StatusInternalServerError,
					errBody{Error: fmt.Sprintf("internal error: %v", p)})
			}
		}()
		h(w, r)
	}
}

// admitted wraps a data-plane handler with the admission state machine
// and the SiteServe failpoint (which fires admitted — inside the slot
// and the drain gate — so gated-hook tests hold a genuinely in-flight
// request).
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return s.guarded(func(w http.ResponseWriter, r *http.Request) {
		release, ok := s.admit(w, r)
		if !ok {
			return
		}
		defer release()
		if err := faults.Inject(faults.SiteServe); err != nil {
			writeJSON(w, http.StatusInternalServerError, errBody{Error: err.Error()})
			return
		}
		h(w, r)
	})
}

// admit runs the admission state machine. On success it returns a
// release func and true; otherwise it has already written the 503/429
// response (or the client vanished) and returns false.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (func(), bool) {
	if s.isDraining() {
		s.bounceDraining(w)
		return nil, false
	}
	select {
	case s.slots <- struct{}{}:
	default:
		// Saturated: wait in the bounded queue, or shed. The waiter count
		// check is advisory (racy by a request or two under a thundering
		// herd), which is fine — the queue bound is a shedding heuristic,
		// not a resource limit; the slot semaphore is the hard cap.
		if s.cfg.QueueDepth < 0 || s.waiting.Load() >= int64(s.cfg.QueueDepth) {
			s.shedReq(w, nil)
			return nil, false
		}
		s.waiting.Add(1)
		t := time.NewTimer(s.cfg.QueueWait)
		select {
		case s.slots <- struct{}{}:
			s.waiting.Add(-1)
			t.Stop()
		case <-t.C:
			s.waiting.Add(-1)
			s.shedReq(w, nil)
			return nil, false
		case <-r.Context().Done():
			s.waiting.Add(-1)
			t.Stop()
			return nil, false
		}
	}
	// Slot held: register with the drain gate. A drain that began while
	// we queued bounces the request; one that begins after this point
	// waits for it.
	s.admitMu.RLock()
	if s.draining {
		s.admitMu.RUnlock()
		<-s.slots
		s.bounceDraining(w)
		return nil, false
	}
	s.inflightWG.Add(1)
	s.admitMu.RUnlock()
	s.inflight.Add(1)
	return func() {
		<-s.slots
		s.inflight.Add(-1)
		s.inflightWG.Done()
	}, true
}

func (s *Server) bounceDraining(w http.ResponseWriter) {
	s.rejected.Add(1)
	writeJSON(w, http.StatusServiceUnavailable, errBody{Error: "draining"})
}

// shedRetryAfterMax bounds the jittered Retry-After hint (seconds).
const shedRetryAfterMax = 3

func (s *Server) shedReq(w http.ResponseWriter, tn *tenant) {
	s.shed.Add(1)
	if tn != nil {
		tn.shed.Add(1)
	}
	// Jitter the retry hint across [1, shedRetryAfterMax] so the clients
	// shed at a saturation spike do not all stampede back in the same
	// second and re-create the spike they were shed from.
	w.Header().Set("Retry-After", strconv.Itoa(1+rand.Intn(shedRetryAfterMax)))
	writeJSON(w, http.StatusTooManyRequests, errBody{Error: "overloaded; retry with backoff"})
}

// tenantFunc is admitted plus tenant resolution and the per-tenant
// in-flight cap.
func (s *Server) tenantFunc(h func(*Server, http.ResponseWriter, *http.Request, *tenant)) http.HandlerFunc {
	return s.admitted(func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		tn := s.tenant(name)
		if tn == nil {
			writeJSON(w, http.StatusNotFound, errBody{Error: fmt.Sprintf("unknown tenant %q", name)})
			return
		}
		if tn.inflight.Add(1) > int64(s.cfg.PerTenantInflight) {
			tn.inflight.Add(-1)
			s.shedReq(w, tn)
			return
		}
		defer tn.inflight.Add(-1)
		h(s, w, r, tn)
	})
}

// ---- handlers ----

type errBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// maxBodyBytes bounds request bodies (schemas, documents, queries) so a
// hostile payload cannot balloon memory before parsing rejects it. A body
// past it is answered 413, never read as a truncated one.
const maxBodyBytes = 8 << 20

// decodeJSON reads a request body holding exactly one JSON value into v:
// a body over maxBodyBytes is answered 413, and a malformed value or
// anything but whitespace after it 400.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		} else if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	writeJSON(w, statusForError(err), errBody{Error: "bad request body: " + err.Error()})
	return false
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	s.tmu.RLock()
	ready := true
	for _, tn := range s.tenants {
		if !tn.eng.Ready() {
			ready = false
			break
		}
	}
	n := len(s.tenants)
	s.tmu.RUnlock()
	if !ready {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "tenant not ready"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "tenants": n})
}

// TenantStats is one tenant's slice of the /stats payload.
type TenantStats struct {
	Ready    bool              `json:"ready"`
	Inflight int64             `json:"inflight"`
	Served   int64             `json:"served"`
	Shed     int64             `json:"shed"`
	Tables   int               `json:"tables"`
	Rows     int               `json:"rows"`
	Cache    legodb.CacheStats `json:"cache"`
	// Adaptation-loop counters: drift checks run, background
	// re-advises, live migrations completed, and the last drift score.
	DriftChecks uint64  `json:"drift_checks"`
	ReAdvises   uint64  `json:"readvises"`
	Migrations  uint64  `json:"migrations"`
	LastDrift   float64 `json:"last_drift"`
	// Indexes is the store's current secondary-index set (table.column)
	// and IndexRetunes how often the observed workload changed it.
	Indexes      []string `json:"indexes"`
	IndexRetunes uint64   `json:"index_retunes"`
}

// Stats is the /stats payload: serving counters, the fleet registry's
// cost-cache counters, and per-tenant health.
type Stats struct {
	Draining    bool                   `json:"draining"`
	Inflight    int64                  `json:"inflight"`
	Waiting     int64                  `json:"waiting"`
	Served      int64                  `json:"served"`
	Shed        int64                  `json:"shed"`
	Rejected    int64                  `json:"rejected"`
	Panics      int64                  `json:"panics"`
	Timeouts    int64                  `json:"timeouts"`
	BootWarning string                 `json:"boot_warning,omitempty"`
	Registry    legodb.RegistryStats   `json:"registry"`
	Tenants     map[string]TenantStats `json:"tenants"`
}

// StatsSnapshot assembles the /stats payload (also used in-process by
// tests and the load generator).
func (s *Server) StatsSnapshot() Stats {
	st := Stats{
		Draining:    s.isDraining(),
		Inflight:    s.inflight.Load(),
		Waiting:     s.waiting.Load(),
		Served:      s.served.Load(),
		Shed:        s.shed.Load(),
		Rejected:    s.rejected.Load(),
		Panics:      s.panics.Load(),
		Timeouts:    s.timeouts.Load(),
		BootWarning: s.bootWarning,
		Registry:    s.reg.Stats(),
		Tenants:     make(map[string]TenantStats),
	}
	s.tmu.RLock()
	defer s.tmu.RUnlock()
	for name, tn := range s.tenants {
		ad := tn.ctrl.Stats()
		st.Tenants[name] = TenantStats{
			Ready:       tn.eng.Ready(),
			Inflight:    tn.inflight.Load(),
			Served:      tn.served.Load(),
			Shed:        tn.shed.Load(),
			Tables:      len(tn.store.Tables()),
			Rows:        tn.store.TotalRows(),
			Cache:       tn.eng.CacheStats(),
			DriftChecks: ad.Checks,
			ReAdvises:   ad.ReAdvises,
			Migrations:  ad.Migrations,
			LastDrift:   ad.LastDrift,

			Indexes:      tn.store.Indexes(),
			IndexRetunes: tn.store.IndexRetunes(),
		}
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var spec TenantSpec
	if !decodeJSON(w, r, &spec) {
		return
	}
	if err := s.AddTenant(r.Context(), spec); err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, errBody{Error: err.Error()})
		return
	}
	s.served.Add(1)
	writeJSON(w, http.StatusCreated, map[string]any{"created": spec.Name})
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request, tn *tenant) {
	if err := tn.store.LoadXML(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		writeJSON(w, statusForError(err), errBody{Error: err.Error()})
		return
	}
	tn.served.Add(1)
	s.served.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"rows": tn.store.TotalRows()})
}

// queryRequest is the /query body. TimeoutMs may shorten (never extend)
// the server's per-request deadline.
type queryRequest struct {
	Query     string            `json:"query"`
	Params    map[string]string `json:"params,omitempty"`
	TimeoutMs int               `json:"timeout_ms,omitempty"`
}

func (s *Server) requestDeadline(ms int) time.Duration {
	d := s.cfg.RequestTimeout
	if ms > 0 {
		if req := time.Duration(ms) * time.Millisecond; req < d {
			d = req
		}
	}
	return d
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, tn *tenant) {
	var req queryRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	// Parse/translate errors are the client's fault and are not worth an
	// executor dispatch; split them from execution failures.
	pq, err := tn.store.Prepare(req.Query)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody{Error: err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.requestDeadline(req.TimeoutMs))
	defer cancel()
	// The answer is encoded into a pooled buffer as the engine projects
	// it, and only a whole body is written: an error or a deadline
	// mid-answer still becomes a clean status.
	start := time.Now()
	bp := s.takeBody()
	enc := queryEncoder{b: *bp}
	defer func() { s.releaseBody(bp, enc.b) }()
	if err := pq.RunTo(ctx, legodb.Params(req.Params), &enc); err != nil {
		s.writeExecError(w, r, err)
		return
	}
	tn.served.Add(1)
	s.served.Add(1)
	b := enc.finish(float64(time.Since(start).Microseconds()) / 1000)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

type mutateRequest struct {
	Query     string            `json:"query"`
	Params    map[string]string `json:"params,omitempty"`
	Fragment  string            `json:"fragment,omitempty"`
	TimeoutMs int               `json:"timeout_ms,omitempty"`
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request, tn *tenant) {
	var req mutateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	n, err := tn.store.DeleteWhere(req.Query, legodb.Params(req.Params))
	if err != nil {
		s.writeExecError(w, r, err)
		return
	}
	tn.served.Add(1)
	s.served.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": n})
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request, tn *tenant) {
	var req mutateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	n, err := tn.store.InsertChild(req.Query, legodb.Params(req.Params), req.Fragment)
	if err != nil {
		s.writeExecError(w, r, err)
		return
	}
	tn.served.Add(1)
	s.served.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"inserted": n})
}

// readviseRequest is the /readvise body (optional). Force defaults to
// true — a manual trigger means "check now", bypassing the
// observation-count and drift gates (the cost margin still applies:
// nothing migrates unless the re-advised configuration actually wins).
type readviseRequest struct {
	Force *bool `json:"force,omitempty"`
}

// readviseResponse mirrors adapt.Decision over the wire.
type readviseResponse struct {
	Drift        float64 `json:"drift"`
	Observations uint64  `json:"observations"`
	ReAdvised    bool    `json:"readvised"`
	Migrated     bool    `json:"migrated"`
	CurrentCost  float64 `json:"current_cost,omitempty"`
	NewCost      float64 `json:"new_cost,omitempty"`
	Reason       string  `json:"reason"`
	CutoverMs    float64 `json:"cutover_ms,omitempty"`
	Groups       int     `json:"groups,omitempty"`
	Restarts     int     `json:"restarts,omitempty"`
}

func (s *Server) handleReadvise(w http.ResponseWriter, r *http.Request, tn *tenant) {
	req := readviseRequest{}
	if r.ContentLength > 0 && !decodeJSON(w, r, &req) {
		return
	}
	force := true
	if req.Force != nil {
		force = *req.Force
	}
	// The check runs under the client's context (not the data-plane
	// deadline): the background search budget is the adapt config's,
	// and a dropped client cancels it.
	dec, err := tn.ctrl.Check(r.Context(), force)
	if err != nil {
		s.writeExecError(w, r, err)
		return
	}
	tn.served.Add(1)
	s.served.Add(1)
	resp := readviseResponse{
		Drift:        dec.Drift,
		Observations: dec.Observations,
		ReAdvised:    dec.ReAdvised,
		Migrated:     dec.Migrated,
		CurrentCost:  dec.CurrentCost,
		NewCost:      dec.NewCost,
		Reason:       dec.Reason,
	}
	if dec.Migration != nil {
		resp.CutoverMs = float64(dec.Migration.Cutover.Microseconds()) / 1000
		resp.Groups = dec.Migration.Groups
		resp.Restarts = dec.Migration.Restarts
	}
	if dec.Migrated {
		s.log.Info("tenant migrated", "tenant", tn.name, "drift", dec.Drift,
			"current_cost", dec.CurrentCost, "new_cost", dec.NewCost,
			"cutover", dec.Migration.Cutover)
	}
	writeJSON(w, http.StatusOK, resp)
}

// AdaptTick runs one adaptation check for every tenant (the auto-mode
// loop body, exported so tests and harnesses can drive it
// deterministically). Checks run with force=false: the hysteresis gates
// decide. Errors are logged, never fatal — a failed or aborted check
// leaves the tenant serving its current image.
func (s *Server) AdaptTick(ctx context.Context) {
	s.tmu.RLock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, tn := range s.tenants {
		tenants = append(tenants, tn)
	}
	s.tmu.RUnlock()
	for _, tn := range tenants {
		dec, err := tn.ctrl.Check(ctx, false)
		if err != nil {
			s.log.Error("adapt check failed", "tenant", tn.name, "error", err)
			continue
		}
		if dec.Migrated {
			s.log.Info("tenant migrated", "tenant", tn.name, "drift", dec.Drift,
				"current_cost", dec.CurrentCost, "new_cost", dec.NewCost,
				"cutover", dec.Migration.Cutover)
		}
	}
}

// adaptLoop ticks AdaptTick every AdaptInterval until ctx is cancelled.
func (s *Server) adaptLoop(ctx context.Context) {
	t := time.NewTicker(s.cfg.AdaptInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if s.isDraining() {
				return
			}
			s.AdaptTick(ctx)
		}
	}
}

// writeExecError maps an execution failure to a structured response:
// deadline → 504 (counted), client cancellation → log only (the
// connection is gone), anything else → 500 with the error text.
func (s *Server) writeExecError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, errBody{Error: "deadline exceeded"})
	case errors.Is(err, context.Canceled):
		s.log.Debug("request cancelled by client", "path", r.URL.Path)
	default:
		writeJSON(w, statusForError(err), errBody{Error: err.Error()})
	}
}

// statusForError distinguishes injected/engine faults (500) and bodies
// over maxBodyBytes (413) from validation failures (400). Engine errors
// carry the "engine:" prefix or wrap the failpoint sentinel; everything
// else came from parsing or schema validation of caller input.
func statusForError(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	if errors.Is(err, faults.ErrInjected) {
		return http.StatusInternalServerError
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// ---- drain ----

// ErrDrainForced reports a drain that hit its deadline with requests
// still in flight; callers (legodbd) exit non-zero on it so operators
// can tell a forced stop from a clean one.
var ErrDrainForced = errors.New("drain deadline exceeded")

// BeginDrain flips the server into draining: no new requests are
// admitted (503), /healthz reports draining. Idempotent.
func (s *Server) BeginDrain() {
	s.admitMu.Lock()
	was := s.draining
	s.draining = true
	s.admitMu.Unlock()
	if !was {
		s.log.Info("drain started", "inflight", s.inflight.Load())
	}
}

// Drain performs the graceful shutdown: stop admitting, wait for
// in-flight requests under the drain deadline, then snapshot the
// registry's cost cache (even after a forced drain — a partial fleet's
// cache is still worth warming the next boot with). It returns nil on a
// clean drain; a non-nil error means the deadline forced it or the
// snapshot failed.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.inflightWG.Wait()
		close(done)
	}()
	t := time.NewTimer(s.cfg.DrainTimeout)
	defer t.Stop()
	var drainErr error
	select {
	case <-done:
		s.log.Info("drain complete")
	case <-t.C:
		drainErr = fmt.Errorf("server: %w: %s with %d requests in flight",
			ErrDrainForced, s.cfg.DrainTimeout, s.inflight.Load())
		s.log.Error("drain forced", "inflight", s.inflight.Load())
	case <-ctx.Done():
		drainErr = fmt.Errorf("server: drain cancelled: %w", ctx.Err())
	}
	if s.cfg.SnapshotPath != "" {
		if err := s.reg.SaveSnapshotFile(s.cfg.SnapshotPath); err != nil {
			err = fmt.Errorf("server: save snapshot: %w", err)
			s.log.Error("snapshot save failed", "error", err)
			if drainErr == nil {
				drainErr = err
			}
		} else {
			s.log.Info("cost-cache snapshot saved", "path", s.cfg.SnapshotPath)
		}
	}
	if s.cfg.StoreDir != "" {
		if err := s.saveTenantStores(); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	return drainErr
}

// Run serves on ln until ctx is cancelled (typically by SIGTERM via
// signal.NotifyContext), then drains gracefully: stop admitting, finish
// in-flight requests under the drain deadline, snapshot, close the
// listener. It returns nil on a clean drain.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	if s.cfg.AdaptInterval > 0 {
		go s.adaptLoop(ctx)
	}
	select {
	case err := <-serveErr:
		return fmt.Errorf("server: serve: %w", err)
	case <-ctx.Done():
	}
	s.log.Info("shutdown requested; draining", "inflight", s.inflight.Load())
	drainErr := s.Drain(context.Background())
	shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && drainErr == nil {
		drainErr = fmt.Errorf("server: shutdown: %w", err)
	}
	<-serveErr // http.ErrServerClosed from the Serve goroutine
	return drainErr
}
