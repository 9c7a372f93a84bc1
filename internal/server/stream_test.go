package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"legodb"
	"legodb/internal/imdb"
	"legodb/internal/xmltree"
)

// serveQuery runs one /query request through h in process.
func serveQuery(h http.Handler, query string, params map[string]string) *httptest.ResponseRecorder {
	body, _ := json.Marshal(queryRequest{Query: query, Params: params})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tenants/imdb/query", bytes.NewReader(body)))
	return rec
}

// analyticQueries are the serve-analytic requests: the joins Q12 and
// Q13 and the publishes Q15 and Q16. A store serving 1 024 of them
// retunes its index set to what fits them.
var analyticQueries = []string{"Q12", "Q13", "Q15", "Q16"}

// retunedIndexes is the set an all-inlined store installs after the
// analytic traffic, with statistics for 16 documents.
var retunedIndexes = []string{"Show.title", "Aka.parent_Show", "Played.parent_Actor"}

// streamServer builds a server whose "imdb" tenant declares Q15 alone —
// so it starts with no secondary index — priced for 16 documents and
// loaded with one 50-show document.
func streamServer(t testing.TB, config string) (*Server, *xmltree.Node) {
	t.Helper()
	s, err := New(Config{Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	spec := testTenantSpec("imdb")
	spec.Config = config
	spec.Queries = []TenantQuery{{Name: "Q15", Text: imdb.Query("Q15").String(), Weight: 1}}
	spec.Documents = 16
	if err := s.AddTenant(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	doc := imdb.Generate(imdb.GenOptions{Shows: 50, Seed: 1000})
	if err := s.LoadDocument("imdb", doc); err != nil {
		t.Fatal(err)
	}
	if got := s.TenantStore("imdb").Indexes(); len(got) != 0 {
		t.Fatalf("%s tenant starts with indexes %v, want none", config, got)
	}
	return s, doc
}

// retune serves the analytic queries until the store re-chooses its
// index set.
func retune(t testing.TB, store *legodb.Store) {
	t.Helper()
	for i := 0; store.IndexRetunes() == 0; i++ {
		if i == 4096 {
			t.Fatal("the store never retuned")
		}
		pq, err := store.Prepare(imdb.Query(analyticQueries[i%len(analyticQueries)]).String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pq.RunValues(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
	}
}

// queryParams binds Q1–Q20's c1 to a value of the document that the
// query's filter reads, so the lookups find rows.
func queryParams(doc *xmltree.Node, name string) map[string]string {
	path := map[string][]string{
		"Q1": {"show", "title"}, "Q2": {"show", "title"}, "Q4": {"show", "title"},
		"Q5": {"show", "title"}, "Q6": {"show", "title"}, "Q19": {"show", "title"},
		"Q3": {"show", "year"},
		"Q7": {"show", "episodes", "guest_director"},
		"Q8": {"actor", "name"}, "Q14": {"actor", "name"}, "Q18": {"actor", "name"},
		"Q9": {"actor", "biography", "birthday"}, "Q10": {"actor", "biography", "birthday"},
		"Q11": {"actor", "played", "character"},
		"Q20": {"director", "name"},
	}[name]
	if path == nil {
		return nil
	}
	nodes := doc.Path(path...)
	if len(nodes) == 0 {
		return map[string]string{"c1": "absent"}
	}
	return map[string]string{"c1": nodes[len(nodes)/2].Text}
}

// blockWidths returns the number of cells each SELECT of a translation
// projects.
func blockWidths(sql string) []int {
	var ws []int
	for _, line := range strings.Split(sql, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "SELECT "); ok {
			ws = append(ws, strings.Count(rest, ",")+1)
		}
	}
	return ws
}

// TestStreamedBodyMatchesMaterialized: the /query body, encoded as the
// engine projects each chunk, is byte for byte json.Encoder's rendering
// of the materialized answer (RunValues), elapsed time aside — for every
// Appendix C query Q1–Q20, on the all-inlined, all-outlined and advised
// configurations, under the key-only index set and the retuned one. The
// cases include empty answers and unions whose blocks differ in width,
// where the narrower blocks' rows are padded with NULL.
func TestStreamedBodyMatchesMaterialized(t *testing.T) {
	var sawEmpty, sawPadded bool
	for _, config := range []string{"all-inlined", "all-outlined", ""} {
		for _, retuned := range []bool{false, true} {
			s, doc := streamServer(t, config)
			store := s.TenantStore("imdb")
			if retuned {
				retune(t, store)
				if got := store.Indexes(); config == "all-inlined" && !slices.Equal(got, retunedIndexes) {
					t.Fatalf("all-inlined retuned to %v, want %v", got, retunedIndexes)
				}
			}
			h := s.Handler()
			type request struct {
				name, query string
				params      map[string]string
			}
			var reqs []request
			for i := 1; i <= 20; i++ {
				name := fmt.Sprintf("Q%d", i)
				reqs = append(reqs, request{name, imdb.Query(name).String(), queryParams(doc, name)})
			}
			reqs = append(reqs, request{"no such year", imdb.Query("Q3").String(), map[string]string{"c1": "1066"}})
			for _, r := range reqs {
				label := fmt.Sprintf("%s/%v/%s", config, store.Indexes(), r.name)
				rec := serveQuery(h, r.query, r.params)
				if rec.Code != http.StatusOK {
					t.Fatalf("%s = %d: %s", label, rec.Code, rec.Body)
				}
				got := rec.Body.Bytes()
				var qr queryResponse
				if err := json.Unmarshal(got, &qr); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				pq, err := store.Prepare(r.query)
				if err != nil {
					t.Fatal(err)
				}
				rs, err := pq.RunValues(context.Background(), legodb.Params(r.params))
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceBody(t, rs, qr.ElapsedMs); !bytes.Equal(got, want) {
					t.Fatalf("%s: streamed body diverges from the materialized one:\n got  %.400q\n want %.400q", label, got, want)
				}
				sawEmpty = sawEmpty || len(rs.Rows) == 0
				if ws := blockWidths(pq.SQL()); len(rs.Rows) > 0 && slices.Min(ws) < slices.Max(ws) {
					sawPadded = true
				}
			}
		}
	}
	if !sawEmpty || !sawPadded {
		t.Fatalf("cases miss an empty answer (%v) or a union of blocks of different widths (%v)", sawEmpty, sawPadded)
	}
}

// TestStreamedAnswerUnderWrites serves Q15 while /insert and /delete
// run on the same tenant: every answer is whole and well formed, every
// row as wide as the column list, and — under -race — no cell is read
// outside the store's read lock.
func TestStreamedAnswerUnderWrites(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 8, QueueDepth: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan string, 4*rounds)
	mutate := func(path string, req mutateRequest) {
		defer wg.Done()
		body, _ := json.Marshal(req)
		for i := 0; i < rounds; i++ {
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err.Error()
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("%s = %d", path, resp.StatusCode)
			}
		}
	}
	wg.Add(4)
	go mutate("/tenants/imdb/insert", mutateRequest{
		Query:    `FOR $a IN imdb/actor RETURN $a`,
		Fragment: `<played><title>Streamed</title><year>2001</year><character>Extra</character><order_of_appearance>9</order_of_appearance></played>`,
	})
	go mutate("/tenants/imdb/delete", mutateRequest{
		Query: `FOR $p IN imdb/actor/played WHERE $p/title = c1 RETURN $p`, Params: map[string]string{"c1": "Streamed"},
	})
	for c := 0; c < 2; c++ {
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, b := postQuery(t, ts.URL, imdb.Query("Q15").String(), nil, 0)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("Q15 = %d: %s", resp.StatusCode, b)
					continue
				}
				var qr queryResponse
				if err := json.Unmarshal(b, &qr); err != nil {
					errs <- fmt.Sprintf("Q15 body: %v", err)
					continue
				}
				for _, row := range qr.Rows {
					if len(row) != len(qr.Columns) {
						errs <- fmt.Sprintf("Q15 row %v against %d columns", row, len(qr.Columns))
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	waitFor(t, "every response buffer back in the pool", func() bool { return s.bodiesHeld.Load() == 0 })
}

// TestAllocsServeQuery pins what the /query handler allocates, request
// decoding and the recorder included. A served answer is never held as
// rows, so its allocations do not grow with its size: Q15 keeps to
// Q16's budget with seven times Q16's rows.
func TestAllocsServeQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s, doc := streamServer(t, "all-inlined")
	h := s.Handler()
	year := doc.Path("show", "year")[0].Text
	rows := func(query string, params map[string]string) int {
		rec := serveQuery(h, query, params)
		var qr queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("%s = %d: %v", query, rec.Code, err)
		}
		return len(qr.Rows)
	}
	for _, c := range []struct {
		name   string
		query  string
		params map[string]string
		budget float64
	}{
		{"year", lookupQuery, map[string]string{"c1": year}, 70},
		{"Q16", imdb.Query("Q16").String(), nil, 190},
		{"Q15", imdb.Query("Q15").String(), nil, 190},
	} {
		n := rows(c.query, c.params)
		if n == 0 {
			t.Fatalf("%s answers nothing", c.name)
		}
		got := testing.AllocsPerRun(50, func() { serveQuery(h, c.query, c.params) })
		t.Logf("%s: %d rows, %v allocations", c.name, n, got)
		if got > c.budget {
			t.Errorf("serving %s (%d rows) allocates %v times, budget %v", c.name, n, got, c.budget)
		}
	}
}

// BenchmarkServeQuery runs the /query handler end to end in process —
// request decoding, prepared plan, execution, encoding, the response
// recorder — on the serve-analytic corpus: 16 documents of 50 shows
// each, all-inlined. It covers the joins Q12 and Q13, the publishes Q15
// and Q16 and a year lookup. Run it with -benchmem, and profile the
// served path with -cpuprofile or -memprofile on it.
func BenchmarkServeQuery(b *testing.B) {
	// The store's index retunes log a line each; keep them out of the
	// benchmark's output.
	logger := slog.Default()
	slog.SetDefault(quietLogger())
	b.Cleanup(func() { slog.SetDefault(logger) })
	s, err := New(Config{Logger: quietLogger()})
	if err != nil {
		b.Fatal(err)
	}
	spec := testTenantSpec("imdb")
	spec.Documents = 16
	if err := s.AddTenant(context.Background(), spec); err != nil {
		b.Fatal(err)
	}
	var year string
	for i := 0; i < 16; i++ {
		doc := imdb.Generate(imdb.GenOptions{Shows: 50, Seed: 1000 + int64(i)})
		if err := s.LoadDocument("imdb", doc); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			year = doc.Path("show", "year")[0].Text
		}
	}
	h := s.Handler()
	cases := []struct {
		name   string
		query  string
		params map[string]string
	}{
		{"year", lookupQuery, map[string]string{"c1": year}},
	}
	for _, name := range analyticQueries {
		cases = append(cases, struct {
			name   string
			query  string
			params map[string]string
		}{name, imdb.Query(name).String(), nil})
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			size := 0
			for i := 0; i < b.N; i++ {
				rec := serveQuery(h, c.query, c.params)
				if rec.Code != http.StatusOK {
					b.Fatalf("%s = %d: %s", c.name, rec.Code, rec.Body)
				}
				size = rec.Body.Len()
			}
			b.ReportMetric(float64(size), "body_bytes/op")
		})
	}
}
