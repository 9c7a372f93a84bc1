package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"legodb"
	"legodb/internal/faults"
	"legodb/internal/imdb"
	"legodb/internal/xmltree"
)

const lookupQuery = `FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title, $v/year`

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func testTenantSpec(name string) TenantSpec {
	return TenantSpec{
		Name:   name,
		Schema: imdb.SchemaText,
		Stats:  imdb.StatsText,
		Config: "all-inlined",
		Queries: []TenantQuery{
			{Name: "lookup", Text: lookupQuery, Weight: 1},
		},
	}
}

// newTestServer builds a server with an all-inlined "imdb" tenant
// preloaded with a small synthetic document.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.AddTenant(context.Background(), testTenantSpec("imdb")); err != nil {
		t.Fatalf("AddTenant: %v", err)
	}
	if err := s.LoadDocument("imdb", imdb.Generate(imdb.GenOptions{Shows: 30, Seed: 7})); err != nil {
		t.Fatalf("LoadDocument: %v", err)
	}
	return s
}

func postQuery(t *testing.T, base, query string, params map[string]string, timeoutMs int) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(queryRequest{Query: query, Params: params, TimeoutMs: timeoutMs})
	resp, err := http.Post(base+"/tenants/imdb/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST query: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

// waitFor polls cond for up to 5s; serving-state transitions (a request
// reaching its in-flight hook, a drain flipping) are observed this way
// instead of with sleeps.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestServeQueryEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	resp, body := postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1999"}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if len(qr.Columns) != 2 {
		t.Fatalf("columns = %v, want 2", qr.Columns)
	}

	st := s.StatsSnapshot()
	if st.Served == 0 {
		t.Fatal("served counter not bumped")
	}
	tn := st.Tenants["imdb"]
	if !tn.Ready || tn.Rows == 0 || tn.Tables == 0 {
		t.Fatalf("tenant stats = %+v, want ready with rows", tn)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer resp.Body.Close()
	var hs Stats
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if hs.Tenants["imdb"].Rows != tn.Rows {
		t.Fatalf("http stats rows = %d, snapshot = %d", hs.Tenants["imdb"].Rows, tn.Rows)
	}
}

func TestCreateLoadQueryOverHTTP(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ts2 := testTenantSpec("imdb2")
	ts2.Config = "all-outlined"
	spec, _ := json.Marshal(ts2)
	resp, err := http.Post(ts.URL+"/tenants", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatalf("POST tenants: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create tenant = %d, want 201", resp.StatusCode)
	}
	// Duplicate names are rejected, not replaced.
	resp, err = http.Post(ts.URL+"/tenants", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate tenant = %d, want 400", resp.StatusCode)
	}

	doc := imdb.Generate(imdb.GenOptions{Shows: 5, Seed: 3})
	resp, err = http.Post(ts.URL+"/tenants/imdb2/load", "application/xml",
		strings.NewReader(doc.String()))
	if err != nil {
		t.Fatalf("POST load: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load = %d: %s", resp.StatusCode, b)
	}

	body, _ := json.Marshal(queryRequest{Query: `FOR $v IN imdb/show RETURN $v/title`})
	resp, err = http.Post(ts.URL+"/tenants/imdb2/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query on created tenant = %d: %s", resp.StatusCode, b)
	}
}

func TestUnknownTenantAndBadQuery(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(queryRequest{Query: lookupQuery})
	resp, err := http.Post(ts.URL+"/tenants/nosuch/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant = %d, want 404", resp.StatusCode)
	}

	resp, b := postQuery(t, ts.URL, "THIS IS NOT XQUERY", nil, 0)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query = %d: %s", resp.StatusCode, b)
	}
	var eb errBody
	if err := json.Unmarshal(b, &eb); err != nil || eb.Error == "" {
		t.Fatalf("bad query error body = %q (%v)", b, err)
	}
}

// TestInjectedExecFaultRecovers arms the executor failpoint for two
// hits: both requests get structured 500s, the third succeeds, and the
// server never counts a panic.
func TestInjectedExecFaultRecovers(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	restore := faults.Enable(faults.SiteExec, 2, false)
	defer restore()
	for i := 0; i < 2; i++ {
		resp, b := postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1999"}, 0)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("faulted query %d = %d: %s", i, resp.StatusCode, b)
		}
		var eb errBody
		if err := json.Unmarshal(b, &eb); err != nil || !strings.Contains(eb.Error, "injected") {
			t.Fatalf("faulted query %d body = %q", i, b)
		}
	}
	resp, b := postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1999"}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered query = %d: %s", resp.StatusCode, b)
	}
	if p := s.StatsSnapshot().Panics; p != 0 {
		t.Fatalf("panics = %d, want 0", p)
	}
}

// TestInjectedShredFaultOnLoad proves a faulted document load reports a
// 500 and the tenant keeps serving loads afterwards.
func TestInjectedShredFaultOnLoad(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc := imdb.Generate(imdb.GenOptions{Shows: 2, Seed: 11})
	restore := faults.Enable(faults.SiteShred, 1, false)
	defer restore()
	resp, err := http.Post(ts.URL+"/tenants/imdb/load", "application/xml", strings.NewReader(doc.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted load = %d, want 500", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/tenants/imdb/load", "application/xml", strings.NewReader(doc.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered load = %d, want 200", resp.StatusCode)
	}
}

// TestPanicIsolation injects a panic into the executor: the request
// gets a 500, the panic counter bumps, and the next request serves.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	restore := faults.Enable(faults.SiteExec, 1, true)
	defer restore()
	resp, b := postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1999"}, 0)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked query = %d: %s", resp.StatusCode, b)
	}
	if p := s.StatsSnapshot().Panics; p != 1 {
		t.Fatalf("panics = %d, want 1", p)
	}
	resp, b = postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1999"}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after panic = %d: %s", resp.StatusCode, b)
	}
}

// TestSaturationSheds holds the single slot with a gated request and
// checks the next request is shed with 429 + Retry-After rather than
// queued (QueueDepth < 0) or blocked.
func TestSaturationSheds(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1, QueueDepth: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	gate := make(chan struct{})
	entered := make(chan struct{})
	restore := faults.EnableHook(faults.SiteServe, 1, func() {
		close(entered)
		<-gate
	})
	defer restore()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, b := postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1999"}, 0)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("held query = %d: %s", resp.StatusCode, b)
		}
	}()
	<-entered

	resp, b := postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1999"}, 0)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated query = %d: %s", resp.StatusCode, b)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response missing Retry-After")
	}
	close(gate)
	wg.Wait()
	if st := s.StatsSnapshot(); st.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Shed)
	}
}

// TestQueueAdmitsWhenSlotFrees saturates the one slot, queues a second
// request within the queue budget, frees the slot, and expects the
// queued request to be admitted rather than shed.
func TestQueueAdmitsWhenSlotFrees(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1, QueueDepth: 4, QueueWait: 2 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	gate := make(chan struct{})
	entered := make(chan struct{})
	restore := faults.EnableHook(faults.SiteServe, 1, func() {
		close(entered)
		<-gate
	})
	defer restore()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		resp, b := postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1999"}, 0)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("held query = %d: %s", resp.StatusCode, b)
		}
	}()
	<-entered
	go func() {
		defer wg.Done()
		resp, b := postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1999"}, 0)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("queued query = %d: %s", resp.StatusCode, b)
		}
	}()
	waitFor(t, "second request to queue", func() bool { return s.waiting.Load() == 1 })
	close(gate)
	wg.Wait()
	if st := s.StatsSnapshot(); st.Shed != 0 {
		t.Fatalf("shed = %d, want 0", st.Shed)
	}
}

// TestPerTenantCapSheds blocks one query inside the tenant's executor
// and checks a second query for the same tenant is shed by the
// per-tenant cap even though global slots remain.
func TestPerTenantCapSheds(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 8, PerTenantInflight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	gate := make(chan struct{})
	entered := make(chan struct{})
	restore := faults.EnableHook(faults.SiteExec, 1, func() {
		close(entered)
		<-gate
	})
	defer restore()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, b := postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1999"}, 0)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("held query = %d: %s", resp.StatusCode, b)
		}
	}()
	<-entered

	resp, _ := postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1999"}, 0)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap query = %d, want 429", resp.StatusCode)
	}
	close(gate)
	wg.Wait()
	if shed := s.StatsSnapshot().Tenants["imdb"].Shed; shed != 1 {
		t.Fatalf("tenant shed = %d, want 1", shed)
	}
}

// TestRequestDeadline504 holds the executor past the request's own
// timeout_ms: the response is a 504 and the timeout counter bumps.
func TestRequestDeadline504(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	restore := faults.EnableHook(faults.SiteExec, 1, func() {
		time.Sleep(150 * time.Millisecond)
	})
	defer restore()
	resp, b := postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1999"}, 30)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow query = %d: %s", resp.StatusCode, b)
	}
	if n := s.StatsSnapshot().Timeouts; n != 1 {
		t.Fatalf("timeouts = %d, want 1", n)
	}
	resp, b = postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1999"}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after timeout = %d: %s", resp.StatusCode, b)
	}
}

// TestClientCancellationReleasesSlot cancels the client mid-execution
// and checks the in-flight slot is returned and the server keeps
// serving — a dropped connection must not leak admission tokens.
func TestClientCancellationReleasesSlot(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1, QueueDepth: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	entered := make(chan struct{})
	restore := faults.EnableHook(faults.SiteExec, 1, func() {
		close(entered)
		time.Sleep(100 * time.Millisecond) // past the client's cancel
	})
	defer restore()

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(queryRequest{Query: lookupQuery, Params: map[string]string{"c1": "1999"}})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/tenants/imdb/query", bytes.NewReader(body))
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	<-entered
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request returned no error")
	}
	waitFor(t, "slot release", func() bool { return s.inflight.Load() == 0 })
	resp, b := postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1999"}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after cancellation = %d: %s", resp.StatusCode, b)
	}
}

// TestDrainCompletesInflight holds a request, starts a drain, checks new
// requests bounce with 503 while the held one completes, and that the
// drain snapshots the cost cache for the next boot.
func TestDrainCompletesInflight(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "cache.snap")
	s := newTestServer(t, Config{SnapshotPath: snap, DrainTimeout: 5 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	gate := make(chan struct{})
	entered := make(chan struct{})
	restore := faults.EnableHook(faults.SiteServe, 1, func() {
		close(entered)
		<-gate
	})
	defer restore()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, b := postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1999"}, 0)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("held query = %d: %s", resp.StatusCode, b)
		}
	}()
	<-entered

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, "draining flag", s.isDraining)

	resp, _ := postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1999"}, 0)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during drain = %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", hresp.StatusCode)
	}

	close(gate)
	wg.Wait()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	// The snapshot boots the next server warm.
	s2, err := New(Config{SnapshotPath: snap, Logger: quietLogger()})
	if err != nil {
		t.Fatalf("New from snapshot: %v", err)
	}
	if w := s2.BootWarning(); w != "" {
		t.Fatalf("clean snapshot produced warning %q", w)
	}
	if s2.Registry().Stats().Cache.Entries == 0 {
		t.Fatal("snapshot reloaded zero cache entries")
	}
}

// TestDrainForcedByDeadline holds a request past a tiny drain deadline
// and expects ErrDrainForced (and still a snapshot attempt).
func TestDrainForcedByDeadline(t *testing.T) {
	s := newTestServer(t, Config{DrainTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	gate := make(chan struct{})
	entered := make(chan struct{})
	restore := faults.EnableHook(faults.SiteServe, 1, func() {
		close(entered)
		<-gate
	})
	defer restore()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1999"}, 0)
		resp.Body.Close()
	}()
	<-entered
	err := s.Drain(context.Background())
	close(gate)
	wg.Wait()
	if err == nil || !strings.Contains(err.Error(), "drain deadline") {
		t.Fatalf("forced drain err = %v, want drain deadline error", err)
	}
}

// TestBootQuarantinesCorruptSnapshot writes garbage where the snapshot
// should be: the server must quarantine it to .corrupt, report the
// warning, and serve cold.
func TestBootQuarantinesCorruptSnapshot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "cache.snap")
	if err := os.WriteFile(snap, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{SnapshotPath: snap, Logger: quietLogger()})
	if err != nil {
		t.Fatalf("New over corrupt snapshot: %v", err)
	}
	if s.BootWarning() == "" {
		t.Fatal("corrupt snapshot produced no boot warning")
	}
	if _, err := os.Stat(snap + ".corrupt"); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Fatalf("corrupt snapshot still in place: %v", err)
	}
	// Cold server still takes a tenant and serves.
	if err := s.AddTenant(context.Background(), testTenantSpec("imdb")); err != nil {
		t.Fatalf("AddTenant after quarantine: %v", err)
	}
	if err := s.LoadDocument("imdb", imdb.Generate(imdb.GenOptions{Shows: 3, Seed: 5})); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, b := postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1999"}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after quarantine = %d: %s", resp.StatusCode, b)
	}
	if st := s.StatsSnapshot(); st.BootWarning == "" {
		t.Fatal("boot warning not surfaced in stats")
	}
}

// TestMutationsOverHTTP runs delete and insert through their endpoints.
func TestMutationsOverHTTP(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path string, req mutateRequest) (int, map[string]any) {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	code, out := post("/tenants/imdb/insert", mutateRequest{
		Query:    `FOR $s IN imdb/show WHERE $s/year = c1 RETURN $s`,
		Params:   map[string]string{"c1": "1999"},
		Fragment: `<aka>served alias</aka>`,
	})
	if code != http.StatusOK {
		t.Fatalf("insert = %d: %v", code, out)
	}
	code, out = post("/tenants/imdb/delete", mutateRequest{
		Query:  `FOR $s IN imdb/show WHERE $s/year = c1 RETURN $s`,
		Params: map[string]string{"c1": "1999"},
	})
	if code != http.StatusOK {
		t.Fatalf("delete = %d: %v", code, out)
	}
	if n, ok := out["deleted"].(float64); !ok || n < 0 {
		t.Fatalf("delete reported %v", out)
	}
}

// TestConcurrentTrafficUnderFaults hammers the server with concurrent
// queries while the executor failpoint fires transiently: every request
// terminates with 200 or a structured 500, nothing wedges, and the
// server serves cleanly afterwards. Run with -race in CI.
func TestConcurrentTrafficUnderFaults(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 4, QueueDepth: 64, QueueWait: 2 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	restore := faults.Enable(faults.SiteExec, 10, false)
	defer restore()

	const clients = 8
	const perClient = 10
	var wg sync.WaitGroup
	errs := make(chan string, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, b := postQuery(t, ts.URL, lookupQuery,
					map[string]string{"c1": fmt.Sprint(1990 + i%20)}, 0)
				switch resp.StatusCode {
				case http.StatusOK, http.StatusInternalServerError:
				default:
					errs <- fmt.Sprintf("client %d req %d: status %d body %s", c, i, resp.StatusCode, b)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if s.inflight.Load() != 0 {
		t.Fatalf("inflight = %d after traffic, want 0", s.inflight.Load())
	}
	resp, b := postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1999"}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after hammering = %d: %s", resp.StatusCode, b)
	}
}

// TestStoreDirPersistsTenantsAcrossDrain closes the persistence loop
// at the serving layer: a drained server saves every tenant's store
// into StoreDir as a crash-consistent colfile snapshot, and a second
// server with the same StoreDir reopens the image at AddTenant —
// skipping the advise search — with the data intact.
func TestStoreDirPersistsTenantsAcrossDrain(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{StoreDir: dir})
	wantRows := s.TenantStore("imdb").TotalRows()
	if wantRows == 0 {
		t.Fatal("fixture loaded no rows")
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "imdb.store")); err != nil {
		t.Fatalf("drain left no tenant snapshot: %v", err)
	}

	s2, err := New(Config{StoreDir: dir, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AddTenant(context.Background(), testTenantSpec("imdb")); err != nil {
		t.Fatalf("AddTenant on reboot: %v", err)
	}
	if got := s2.TenantStore("imdb").TotalRows(); got != wantRows {
		t.Fatalf("reopened tenant holds %d rows, want %d", got, wantRows)
	}
	// The reopened image serves queries over HTTP.
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	resp, body := postQuery(t, ts.URL, lookupQuery, map[string]string{"c1": "1990"}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query on reopened store: %d %s", resp.StatusCode, body)
	}
}

// TestStoreDirQuarantinesCorruptTenantSnapshot proves boot resilience:
// a corrupt tenant snapshot is quarantined and the tenant starts empty
// through the advise path instead of failing AddTenant.
func TestStoreDirQuarantinesCorruptTenantSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "imdb.store")
	if err := os.WriteFile(path, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{StoreDir: dir, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTenant(context.Background(), testTenantSpec("imdb")); err != nil {
		t.Fatalf("AddTenant with corrupt snapshot: %v", err)
	}
	if got := s.TenantStore("imdb").TotalRows(); got != 0 {
		t.Fatalf("tenant started with %d rows from a corrupt snapshot", got)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt snapshot not quarantined: %v", err)
	}
}

// TestOversizedBody413: a body past maxBodyBytes is refused as too
// large — a query body and a document alike — never parsed as the
// truncated prefix the server managed to read.
func TestOversizedBody413(t *testing.T) {
	s := newTestServer(t, Config{})
	huge := strings.Repeat("x", maxBodyBytes)
	for _, c := range []struct{ path, body string }{
		{"/tenants/imdb/query", `{"query":"` + huge + `"}`},
		{"/tenants/imdb/load", `<imdb>` + huge + `</imdb>`},
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body = %d: %s", c.path, len(c.body), rec.Code, rec.Body.Bytes())
		}
	}
}

// TestLoadTextOutsideRoot400: a document is one root element with only
// whitespace, comments and processing instructions around it; text
// before or after the root is a bad request that loads nothing.
func TestLoadTextOutsideRoot400(t *testing.T) {
	s := newTestServer(t, Config{})
	doc := imdb.Generate(imdb.GenOptions{Shows: 2, Seed: 11}).String()
	rows := s.TenantStore("imdb").TotalRows()
	for _, c := range []struct {
		body string
		want int
	}{
		{"junk" + doc + "junk", http.StatusBadRequest},
		{doc + "trailing junk", http.StatusBadRequest},
		{"junk" + doc, http.StatusBadRequest},
		{"<?xml version=\"1.0\"?>\n" + doc + "\n<!-- end -->\n", http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tenants/imdb/load", strings.NewReader(c.body)))
		if rec.Code != c.want {
			t.Errorf("load of %.40q… = %d, want %d: %s", c.body, rec.Code, c.want, rec.Body.Bytes())
		}
		if c.want != http.StatusOK && s.TenantStore("imdb").TotalRows() != rows {
			t.Fatalf("a refused load wrote rows")
		}
	}
}

// TestTrailingBodyData400: a JSON body is exactly one value; anything
// after it but whitespace is a bad request, not silently ignored.
func TestTrailingBodyData400(t *testing.T) {
	s := newTestServer(t, Config{})
	query, _ := json.Marshal(queryRequest{Query: lookupQuery, Params: map[string]string{"c1": "1999"}})
	for body, want := range map[string]int{
		string(query) + " \n":               http.StatusOK,
		string(query) + `{"query":"again"}`: http.StatusBadRequest,
		string(query) + ` garbage`:          http.StatusBadRequest,
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tenants/imdb/query", strings.NewReader(body)))
		if rec.Code != want {
			t.Errorf("body %q = %d, want %d: %s", body, rec.Code, want, rec.Body.Bytes())
		}
	}
}

// TestQueryUntranslatableAfterMigration400: a text served before a
// migration that no longer translates after it is the client's error —
// a 400 from preparing it — while the texts that still translate keep
// answering.
func TestQueryUntranslatableAfterMigration400(t *testing.T) {
	const (
		withISBN = `type Lib = lib [ Book{0,*} ]
type Book = book [ title [ String ], year [ Integer ], isbn [ String ]{0,*} ]`
		byYear = `FOR $b IN lib/book WHERE $b/year = c1 RETURN $b/title`
		byISBN = `FOR $b IN lib/book WHERE $b/isbn = c1 RETURN $b/title`
	)
	s, err := New(Config{Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	spec := TenantSpec{Name: "lib", Schema: withISBN, Config: "all-inlined",
		Queries: []TenantQuery{{Name: "year", Text: byYear, Weight: 1}}}
	if err := s.AddTenant(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.Parse(strings.NewReader(`<lib><book><title>Emma</title><year>1815</year></book></lib>`))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadDocument("lib", doc); err != nil {
		t.Fatal(err)
	}
	query := func(text string) int {
		body, _ := json.Marshal(queryRequest{Query: text, Params: map[string]string{"c1": "1815"}})
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tenants/lib/query", bytes.NewReader(body)))
		return rec.Code
	}
	for _, text := range []string{byYear, byISBN} {
		if code := query(text); code != http.StatusOK {
			t.Fatalf("before the migration %q = %d", text, code)
		}
	}
	eng, err := legodb.New(strings.Replace(withISBN, ", isbn [ String ]{0,*}", "", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddQuery("year", byYear, 1); err != nil {
		t.Fatal(err)
	}
	advice, err := eng.EvaluateFixed("all-inlined")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TenantStore("lib").MigrateTo(advice); err != nil {
		t.Fatal(err)
	}
	if code := query(byISBN); code != http.StatusBadRequest {
		t.Errorf("after the migration the isbn lookup = %d, want 400", code)
	}
	if code := query(byYear); code != http.StatusOK {
		t.Errorf("after the migration the year lookup = %d, want 200", code)
	}
}
