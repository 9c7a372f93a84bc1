package main

import (
	"fmt"
	"math/rand"

	"legodb"
	"legodb/internal/imdb"
	"legodb/internal/xmltree"
)

// openRate is the fixed arrival rate of serve-point's open loop, in
// requests per second over both connections: well under what the closed
// loop sustains, so a backlog means the system stalled, not that the
// generator asked for too much.
const openRate = 1500

// poolSource hands client k every clients-th request of the pool,
// round and round: the order is fixed by the seed that drew the pool.
func poolSource(pool []*request) source {
	return func(k, i int) *request { return pool[(k+clients*i)%len(pool)] }
}

func pointReplay(s *sampler, n int) []*request { return s.pointPool(n) }

// servePoint serves point lookups: execution takes tens of microseconds,
// so HTTP decode, parse, translate, planning, stringify and JSON encode
// are most of every request. Phase A is a closed loop; phase B sends the
// same mix at a fixed rate and times each request from when it was due.
func servePoint(r *run) error {
	c, t, setup, err := setUp(r.seed, r.sz, r.sz.setupRounds)
	if err != nil {
		return err
	}
	defer t.close()
	r.set("setup_s", setup, r.sz.setupRounds)
	next := poolSource(newSampler(c, rand.New(rand.NewSource(r.seed))).pointPool(r.sz.pool))
	closedLoop(t, r.warmUp(), next, nil, nil)

	a := closedLoop(t, r.dur*8/10, next, nil, nil)
	r.absorb(a)
	all := a.all()
	r.set("ops_per_s", a.perSecond(), a.ops)
	r.set("p50_ms", median(a.lat["year"]), len(a.lat["year"]))
	r.note("phase A closed loop, %d clients: %d requests, p99 %.3f ms; by class p50 year %.3f title %.3f actor %.3f director %.3f ms",
		clients, a.ops, quantile(all, 0.99), median(a.lat["year"]), median(a.lat["title"]), median(a.lat["actor"]), median(a.lat["director"]))

	r.set("second_p50_ms", median(a.lat["title"]), len(a.lat["title"]))

	b, st := openLoop(t, r.dur*2/10, openRate, next)
	r.absorb(b)
	due := b.all()
	r.note("phase B open loop at %d req/s: %d requests, from due time p50 %.3f p99 %.3f ms; generator lateness p99 %.3f ms, backlog at end %d",
		openRate, b.ops, median(due), quantile(due, 0.99), quantile(st.lateness, 0.99), st.backlog)
	stats := t.srv.StatsSnapshot()
	r.note("server shed %d, timeouts %d", stats.Shed, stats.Timeouts)
	return nil
}

// loopSlice runs a tenth of a closed loop plain and a tenth traced; the
// gap between their rates is what tracing costs.
func loopSlice(r *run, g *rig, next source, done func(int, *request, error)) {
	closedLoop(g.t, r.warmUp(), next, done, nil)
	plain := closedLoop(g.t, r.dur/10, next, done, nil)
	traced := closedLoop(g.t, r.dur/10, next, done, g)
	r.absorb(plain)
	r.absorb(traced)
	r.set("trace.overhead_share", 1-traced.perSecond()/plain.perSecond(), traced.ops)
}

func pointSlice(r *run, g *rig) error {
	next := poolSource(newSampler(g.c, rand.New(rand.NewSource(r.seed))).pointPool(r.sz.pool))
	loopSlice(r, g, next, nil)
	b, st := openLoop(g.t, r.dur/10, openRate, next)
	r.absorb(b)
	due := b.all()
	late := 0
	for _, l := range st.lateness {
		if l > 1 {
			late++
		}
	}
	r.set("client.open_p99_over_p50", quantile(due, 0.99)/median(due), len(due))
	r.set("client.open_late_share", float64(late)/float64(len(st.lateness)), len(st.lateness))
	r.set("client.open_backlog_n", float64(st.backlog), 1)
	return nil
}

// The join oracles: Q12 and Q13 evaluated by nested loops over the
// document tree. Both bind actor and director under one imdb root, so
// they join within a document.

func (c *corpus) q12() multiset {
	var m multiset
	c.joinActorsDirectors(func(_ *xmltree.Node, name, title, year string) { m.add(name, title, year) })
	return m
}

// q13 adds the show of the joined title and returns its akas too: one
// row per match, then one per aka of each matched show.
func (c *corpus) q13() multiset {
	var m multiset
	c.joinActorsDirectors(func(doc *xmltree.Node, name, title, year string) {
		for _, s := range doc.ChildrenNamed("show") {
			if text(s, "title") != title {
				continue
			}
			m.add(name, title, year)
			for _, k := range s.ChildrenNamed("aka") {
				m.add(k.Text)
			}
		}
	})
	return m
}

func (c *corpus) joinActorsDirectors(emit func(doc *xmltree.Node, name, title, year string)) {
	for _, doc := range c.docs {
		directed := make(map[[2]string]int) // (director name, title) → how often
		for _, d := range doc.ChildrenNamed("director") {
			for _, x := range d.ChildrenNamed("directed") {
				directed[[2]string{text(d, "name"), text(x, "title")}]++
			}
		}
		for _, a := range doc.ChildrenNamed("actor") {
			for _, p := range a.ChildrenNamed("played") {
				for n := directed[[2]string{text(a, "name"), text(p, "title")}]; n > 0; n-- {
					emit(doc, text(a, "name"), text(p, "title"), text(p, "year"))
				}
			}
		}
	}
}

// analyticRequests builds the four analytic requests with the answers
// the oracle expects.
func analyticRequests(c *corpus) []*request {
	reqs := []*request{
		newRequest("Q12", "query", imdb.Query("Q12").String(), nil, ""),
		newRequest("Q13", "query", imdb.Query("Q13").String(), nil, ""),
		newRequest("Q15", "query", imdb.Query("Q15").String(), nil, ""),
		newRequest("Q16", "query", imdb.Query("Q16").String(), nil, ""),
	}
	reqs[0].want = c.q12()
	reqs[1].want, reqs[1].keys = c.q13(), keysMixed
	reqs[2].want, reqs[2].keys = c.allActors(), keysAll
	reqs[3].want, reqs[3].keys = c.allShows(), keysAll
	return reqs
}

// checkOutlined answers the two joins a second way: a store in the
// all-outlined configuration must return the row multisets the oracle
// expects, as the served all-inlined store must. It holds the first
// document only — Q13 takes that layout over a second per document and a
// minute for the whole corpus.
func checkOutlined(r *run, c *corpus) error {
	one := &corpus{docs: c.docs[:1]}
	eng, err := legodb.New(imdb.SchemaText)
	if err != nil {
		return err
	}
	if err := eng.SetStatisticsText(imdb.StatsText); err != nil {
		return err
	}
	if err := eng.AddQuery("year", queryYear, 1); err != nil {
		return err
	}
	advice, err := eng.EvaluateFixed("all-outlined")
	if err != nil {
		return err
	}
	outlined, err := advice.Open()
	if err != nil {
		return err
	}
	if err := outlined.Load(one.docs[0]); err != nil {
		return err
	}
	for _, q := range analyticRequests(one)[:2] {
		res, err := outlined.Query(q.query, nil)
		if err == nil {
			if m := digestRows(res.Rows, q.keys); m != q.want {
				err = fmt.Errorf("all-outlined store answers %s with %d rows (digest %x), want %d (digest %x)",
					q.class, m.n, m.sum, q.want.n, q.want.sum)
			}
		}
		r.check(err)
	}
	return nil
}

// analyticReplay replays the join a few times only: one pass through
// every layer executes it eight times.
func analyticReplay(s *sampler, n int) []*request {
	q := newRequest("Q12", "query", imdb.Query("Q12").String(), nil, "")
	q.want = s.c.q12()
	pool := make([]*request, max(n/32, 2))
	for i := range pool {
		pool[i] = q
	}
	return pool
}

// analyticSource cycles each client through Q12, Q13, Q15, Q16; the
// second client starts half a cycle later so the two are not in step.
func analyticSource(reqs []*request) source {
	return func(k, i int) *request { return reqs[(i+2*k)%len(reqs)] }
}

// serveAnalytic serves the four-way joins Q12 and Q13 and the publish
// queries Q15 and Q16: operator execution, hash joins, stringify and
// JSON encoding of 10⁴-row answers dominate, parse and translate vanish.
func serveAnalytic(r *run) error {
	c, t, setup, err := setUp(r.seed, r.sz, r.sz.setupRounds)
	if err != nil {
		return err
	}
	defer t.close()
	r.set("setup_s", setup, r.sz.setupRounds)
	if err := checkOutlined(r, c); err != nil {
		return err
	}
	next := analyticSource(analyticRequests(c))
	closedLoop(t, r.warmUp(), next, nil, nil)
	a := closedLoop(t, r.dur, next, nil, nil)
	r.absorb(a)
	r.set("ops_per_s", a.perSecond(), a.ops)
	r.set("p50_ms", median(a.lat["Q12"]), len(a.lat["Q12"]))
	r.set("second_p50_ms", median(a.lat["Q15"]), len(a.lat["Q15"]))
	r.note("closed loop, %d clients: %d requests, %.0f result rows/s; p50 Q12 join %.2f Q13 join %.2f Q15 publish %.2f Q16 publish %.2f ms",
		clients, a.ops, float64(a.rows)/a.wall.Seconds(), median(a.lat["Q12"]), median(a.lat["Q13"]), median(a.lat["Q15"]), median(a.lat["Q16"]))
	return nil
}

func analyticSlice(r *run, g *rig) error {
	loopSlice(r, g, analyticSource(analyticRequests(g.c)), nil)
	return nil
}
