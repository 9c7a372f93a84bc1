package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"legodb"
	"legodb/internal/imdb"
	"legodb/internal/server"
)

// clients is the number of load-generating goroutines and connections:
// fixed, and no more than the two processors of the reference box, so
// measured latency is service time and not queueing inside the client.
const clients = 2

// tenant is one legodbd serving layer with a loaded IMDB tenant behind a
// loopback listener. Stores run the fixed all-inlined configuration, so
// a change in the advisor's winner cannot pass for a serving change.
type tenant struct {
	srv   *server.Server
	ts    *httptest.Server
	store *legodb.Store
	url   string
}

func newTenant(c *corpus) (*tenant, error) {
	srv, err := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		return nil, err
	}
	err = srv.AddTenant(context.Background(), server.TenantSpec{
		Name: tenantName, Schema: imdb.SchemaText, Stats: imdb.StatsText, Config: "all-inlined",
		Queries:   []server.TenantQuery{{Name: "year", Text: queryYear, Weight: 1}},
		Documents: float64(len(c.docs)),
	})
	if err != nil {
		return nil, err
	}
	t := &tenant{srv: srv, ts: httptest.NewServer(srv.Handler()), store: srv.TenantStore(tenantName)}
	t.url = t.ts.URL + "/tenants/" + tenantName + "/"
	cl := newClient(t)
	defer cl.close()
	for i, text := range c.xml {
		resp, err := cl.hc.Post(t.url+"load", "application/xml", strings.NewReader(text))
		if err != nil {
			t.close()
			return nil, fmt.Errorf("load document %d: %w", i, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.close()
			return nil, fmt.Errorf("load document %d: %s", i, resp.Status)
		}
	}
	return t, nil
}

func (t *tenant) close() { t.ts.Close() }

// setUp generates the corpus and loads a tenant, rounds times over, and
// reports the median round: one round's time depends too much on what
// the process did just before. The last tenant is kept for the run.
func setUp(seed int64, sz sizes, rounds int) (*corpus, *tenant, float64, error) {
	var c *corpus
	var t *tenant
	var secs []float64
	for i := 0; i < rounds; i++ {
		if t != nil {
			t.close()
		}
		start := time.Now()
		c = genCorpus(seed, sz)
		var err error
		if t, err = newTenant(c); err != nil {
			return nil, nil, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return c, t, median(secs), nil
}

// client is one load-generating connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(t *tenant) *client {
	return &client{url: t.url, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole answer. There are no
// retries: anything but a 200 is a failed operation.
func (c *client) do(r *request) ([]byte, error) {
	resp, err := c.hc.Post(c.url+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", r.path, r.class, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// check compares a served answer with the one the request must produce.
func (r *request) check(body []byte) error {
	var got struct {
		Rows     [][]string `json:"rows"`
		Inserted *int       `json:"inserted"`
		Deleted  *int       `json:"deleted"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s: undecodable answer: %w", r.class, err)
	}
	switch r.path {
	case "insert":
		if got.Inserted == nil || *got.Inserted != r.wantN {
			return fmt.Errorf("%s: inserted %v, want %d", r.class, got.Inserted, r.wantN)
		}
	case "delete":
		if got.Deleted == nil || *got.Deleted != r.wantN {
			return fmt.Errorf("%s: deleted %v, want %d", r.class, got.Deleted, r.wantN)
		}
	default:
		if m := digestRows(got.Rows, r.keys); m != r.want {
			return fmt.Errorf("%s %v: %d rows (digest %x), want %d (digest %x)",
				r.class, r.params, m.n, m.sum, r.want.n, r.want.sum)
		}
	}
	return nil
}

// tally collects what one phase observed: latencies per request class in
// milliseconds, result rows, and failed operations with the first cause.
type tally struct {
	mu       sync.Mutex
	lat      map[string][]float64
	ops      int
	failed   int
	firstErr error
	rows     int
	wall     time.Duration
}

func newTally() *tally { return &tally{lat: make(map[string][]float64)} }

func (t *tally) record(class string, d time.Duration, rows int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.rows += rows
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	t.lat[class] = append(t.lat[class], ms(d))
}

func (t *tally) all() []float64 {
	var out []float64
	for _, l := range t.lat {
		out = append(out, l...)
	}
	return out
}

func (t *tally) perSecond() float64 { return float64(t.ops) / t.wall.Seconds() }

// source hands a client its i-th request.
type source func(client, i int) *request

// closedLoop drives the tenant with `clients` callers that each wait for
// an answer before sending the next request, for dur. Latency is send to
// last byte; checking the answer happens after the clock stopped. With a
// rig, every traceSample-th request is followed: a span around its round
// trip, then the same request replayed through the twin's layers.
func closedLoop(t *tenant, dur time.Duration, next source, done func(client int, r *request, err error), g *rig) *tally {
	tl := newTally()
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cl := newClient(t)
			defer cl.close()
			for i := 0; time.Since(start) < dur; i++ {
				r := next(k, i)
				var tr *tracer
				if g != nil && i%traceSample == 0 {
					tr = g.tr
				}
				id := k + clients*i
				root := tr.begin("request "+r.class, -1, id)
				var body []byte
				var err error
				lat := tr.timed("server.http", root, id, func() { body, err = cl.do(r) })
				if err == nil {
					err = r.check(body)
				}
				if tr != nil && r.path == "query" && err == nil {
					sp := tr.begin("twin", root, id)
					_, err = replayOnTwin(g, sp, id, r, false)
					tr.end(sp)
				}
				tr.end(root)
				tl.record(r.class, lat, r.want.n, err)
				if done != nil {
					done(k, r, err)
				}
			}
		}(k)
	}
	wg.Wait()
	tl.wall = time.Since(start)
	return tl
}

// openStats is what the open-loop generator says about itself: if it ran
// late or left a backlog, the latencies it reports are not trustworthy.
type openStats struct {
	lateness []float64 // ms between a request's due time and its send
	backlog  int       // requests not answered by the scheduled end
}

// openLoop sends requests on a fixed schedule — request i is due at
// start + i/rate whatever happened to request i-1 — over the same two
// connections, and times each from the instant it was due, so the wait a
// stall imposes on later requests counts.
func openLoop(t *tenant, dur time.Duration, rate float64, next source) (*tally, openStats) {
	tl := newTally()
	var st openStats
	var mu sync.Mutex
	var wg sync.WaitGroup
	total := int(rate * dur.Seconds())
	gap := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	end := start.Add(dur)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cl := newClient(t)
			defer cl.close()
			var late []float64
			left := 0
			for i := k; i < total; i += clients {
				due := start.Add(time.Duration(i) * gap)
				waitUntil(due)
				r := next(k, i/clients)
				sent := time.Now()
				body, err := cl.do(r)
				finished := time.Now()
				if err == nil {
					err = r.check(body)
				}
				tl.record(r.class, finished.Sub(due), r.want.n, err)
				late = append(late, ms(sent.Sub(due)))
				if finished.After(end) {
					left++
				}
			}
			mu.Lock()
			st.lateness = append(st.lateness, late...)
			st.backlog += left
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	tl.wall = time.Since(start)
	return tl, st
}

// waitUntil sleeps to just before the due time and spins the last
// stretch, so a sleep's overshoot does not count as the system's
// latency. While a client waits it has nothing in flight.
func waitUntil(due time.Time) {
	const spin = 100 * time.Microsecond
	if left := time.Until(due); left > spin {
		time.Sleep(left - spin)
	}
	for time.Now().Before(due) {
	}
}
