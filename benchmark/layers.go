package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"legodb"
	"legodb/internal/colfile"
	"legodb/internal/engine"
	"legodb/internal/fsio"
	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/shred"
	"legodb/internal/sqlast"
	"legodb/internal/xmltree"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

// traceSample: the traced slice follows every fourth request.
const traceSample = 4

// twin is a bare copy of the tenant's store that the harness builds
// itself from the layers' exported functions — map, new database, shred —
// so each layer can be timed from outside, without the store's locks,
// parameter binding or observation around it.
type twin struct {
	ps  *xschema.Schema
	cat *relational.Catalog
	db  *engine.Database
}

func newTwin(documents int) (*twin, error) {
	annotated := imdb.Schema()
	stats, err := xstats.Parse(imdb.StatsText)
	if err != nil {
		return nil, err
	}
	if err := xstats.Annotate(annotated, stats); err != nil {
		return nil, err
	}
	ps, err := pschema.AllInlined(annotated)
	if err != nil {
		return nil, err
	}
	cat, err := relational.MapWith(ps, relational.Options{RootCount: float64(documents)})
	if err != nil {
		return nil, err
	}
	return &twin{ps: ps, cat: cat, db: engine.NewDatabase(cat)}, nil
}

// rig is what a traced run works on: the generated corpus, the served
// tenant, its twin, and the tracer every probe records into.
type rig struct {
	c    *corpus
	t    *tenant
	twin *twin
	tr   *tracer
}

// tracedRun is a -trace 1 run. Every workload runs the same layer probes
// in full, so each per-layer metric is measured on every workload; what
// differs is the request class replayed through the request path and the
// traced tenth of the workload itself that follows.
func tracedRun(w workload, r *run) error {
	g := &rig{tr: newTracer()}
	if err := probeAdvisor(r, g.tr); err != nil {
		return fmt.Errorf("advisor probe: %w", err)
	}
	start := time.Now()
	var err error
	if g.c, g.t, _, err = setUp(r.seed, r.sz, 1); err != nil {
		return err
	}
	defer g.t.close()
	r.set("client.load_mb_per_s", float64(g.c.xmlBytes)/1e6/time.Since(start).Seconds(), 1)
	if err := probeLoad(r, g); err != nil {
		return fmt.Errorf("load probe: %w", err)
	}
	if err := probeSnapshots(r, g); err != nil {
		return fmt.Errorf("snapshot probe: %w", err)
	}
	if err := probeMutate(r, g); err != nil {
		return fmt.Errorf("mutation probe: %w", err)
	}
	smp := newSampler(g.c, rand.New(rand.NewSource(r.seed)))
	if err := probeRequests(r, g, w.replay(smp, r.sz.replays)); err != nil {
		return fmt.Errorf("request probe: %w", err)
	}
	// Only serve-point's slice has an open loop to report on.
	for _, name := range []string{"client.open_p99_over_p50", "client.open_late_share", "client.open_backlog_n"} {
		r.set(name, 0, 0)
	}
	before := g.t.srv.StatsSnapshot()
	if err := w.slice(r, g); err != nil {
		return fmt.Errorf("traced slice: %w", err)
	}
	after := g.t.srv.StatsSnapshot()
	r.set("server.shed_n", float64(after.Shed-before.Shed), 1)
	r.set("server.timeouts_n", float64(after.Timeouts-before.Timeouts), 1)
	path, err := g.tr.write(r.outDir, r.workload)
	if err != nil {
		return err
	}
	r.note("spans written to %s", path)
	return nil
}

func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// probeLoad times the load path layer by layer: parse each document's
// text, shred it into the twin, publish it back; then the one large
// document whose shredding cost grows faster than its size.
func probeLoad(r *run, g *rig) error {
	var err error
	if g.twin, err = newTwin(len(g.c.docs)); err != nil {
		return err
	}
	shredder := shred.New(g.twin.ps, g.twin.cat, g.twin.db)
	var parse, shredding time.Duration
	var alloc uint64
	for i, text := range g.c.xml {
		var doc *xmltree.Node
		parse += g.tr.timed("xmltree.parse", -1, i, func() { doc, err = xmltree.Parse(strings.NewReader(text)) })
		if err != nil {
			return err
		}
		before := allocated()
		shredding += g.tr.timed("shred.shred", -1, i, func() { err = shredder.Shred(doc) })
		alloc += allocated() - before
		if err != nil {
			return err
		}
	}
	mb := float64(g.c.xmlBytes) / 1e6
	r.set("xmltree.parse_mb_per_s", mb/parse.Seconds(), len(g.c.xml))
	r.set("shred.shred_mb_per_s", mb/shredding.Seconds(), len(g.c.xml))
	r.set("shred.alloc_bytes_per_xml_byte", float64(alloc)/float64(g.c.xmlBytes), len(g.c.xml))

	publisher := shred.NewPublisher(g.twin.ps, g.twin.cat, g.twin.db)
	var publish []float64
	for i := 0; i < r.sz.repeats; i++ {
		var docs []*xmltree.Node
		publish = append(publish, ms(g.tr.timed("shred.publish", -1, i, func() { docs, err = publisher.PublishAll() })))
		if err != nil {
			return err
		}
		if i == 0 {
			r.check(sameDocuments("the twin", docs, g.c.docs))
		}
	}
	r.set("shred.publish_ms", median(publish), len(publish))

	large := imdb.Generate(imdb.GenOptions{Shows: r.sz.shows * r.sz.largeMul, Seed: r.seed*1000 + 999})
	bytes := len(large.String())
	big, err := newTwin(1)
	if err != nil {
		return err
	}
	before := allocated()
	d := g.tr.timed("shred.shred large", -1, 0, func() { err = shred.New(big.ps, big.cat, big.db).Shred(large) })
	r.set("shred.large_doc_ms", ms(d), 1)
	r.set("shred.large_doc_alloc_bytes_per_xml_byte", float64(allocated()-before)/float64(bytes), 1)
	return err
}

// docDigest is an order-free digest of a subtree: name, trimmed text,
// attributes and the multiset of child digests. Documents that differ
// only in how differently-named siblings interleave — which the
// relational image does not record — digest alike. (xmltree.EqualCanonical
// decides the same question but serializes every subtree at every level;
// on these documents it takes seconds.)
func docDigest(n *xmltree.Node) uint64 {
	var attrs, kids uint64
	for _, a := range n.Attrs {
		var m multiset
		m.add(a.Name, a.Value)
		attrs += m.sum
	}
	for _, c := range n.Children {
		kids += docDigest(c) * 0x9e3779b97f4a7c15
	}
	var m multiset
	m.add(n.Name, strings.TrimSpace(n.Text), strconv.FormatUint(attrs, 16), strconv.FormatUint(kids, 16))
	return m.sum
}

// sameDocuments reports the first published document that differs from
// its original by more than sibling order.
func sameDocuments(who string, got, want []*xmltree.Node) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s publishes %d documents, want %d", who, len(got), len(want))
	}
	for i := range got {
		if docDigest(got[i]) != docDigest(want[i]) {
			return fmt.Errorf("%s publishes document %d differently", who, i)
		}
	}
	return nil
}

// probeSnapshots times the snapshot path: the column-chunk codec over
// every table of the twin, the atomic file write on its own, and the
// store's SaveFile and OpenStoreFile around both.
func probeSnapshots(r *run, g *rig) error {
	var tables []*colfile.Table
	rows := 0
	for _, name := range g.twin.cat.Order {
		t := g.twin.db.Table(name)
		cols := make([]string, len(t.Def.Columns))
		for i, c := range t.Def.Columns {
			cols[i] = c.Name
		}
		tables = append(tables, &colfile.Table{Name: name, Columns: cols, Rows: t.LiveRows(),
			NextID: t.PeekNextID(), Cols: t.SnapshotColumns()})
		rows += t.LiveRows()
	}
	var enc, dec []float64
	var err error
	encoded := 0
	for i := 0; i < r.sz.repeats; i++ {
		var segs [][]byte
		enc = append(enc, g.tr.timed("colfile.encode", -1, i, func() {
			for _, t := range tables {
				var seg []byte
				if seg, err = colfile.Encode(t); err != nil {
					return
				}
				segs = append(segs, seg)
			}
		}).Seconds())
		if err != nil {
			return err
		}
		dec = append(dec, g.tr.timed("colfile.decode", -1, i, func() {
			for _, seg := range segs {
				if _, err = colfile.Decode(seg); err != nil {
					return
				}
			}
		}).Seconds())
		if err != nil {
			return err
		}
		encoded = 0
		for _, seg := range segs {
			encoded += len(seg)
		}
	}
	r.set("colfile.encode_mb_per_s", float64(encoded)/1e6/median(enc), len(enc))
	r.set("colfile.decode_mb_per_s", float64(encoded)/1e6/median(dec), len(dec))
	r.set("colfile.bytes_per_row", float64(encoded)/float64(rows), 1)

	path := filepath.Join(r.tmpDir, "probe.store")
	var save, open, atomic []float64
	var size int64
	for i := 0; i < r.sz.repeats; i++ {
		save = append(save, ms(g.tr.timed("legodb.save", -1, i, func() { err = g.t.store.SaveFile(path) })))
		if err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		size = fi.Size()
		open = append(open, ms(g.tr.timed("legodb.open", -1, i, func() { _, err = legodb.OpenStoreFile(path) })))
		if err != nil {
			return err
		}
		payload := make([]byte, size)
		atomic = append(atomic, ms(g.tr.timed("fsio.write_atomic", -1, i, func() {
			err = fsio.WriteFileAtomic(filepath.Join(r.tmpDir, "probe.raw"), func(w io.Writer) error {
				_, err := w.Write(payload)
				return err
			})
		})))
		if err != nil {
			return err
		}
	}
	r.set("legodb.save_ms", median(save), len(save))
	r.set("legodb.open_ms", median(open), len(open))
	r.set("fsio.write_atomic_ms", median(atomic), len(atomic))
	r.set("colfile.stored_bytes_per_xml_byte", float64(size)/float64(g.c.xmlBytes), 1)
	return nil
}

// probeMutate times direct Store.InsertChild and DeleteWhere calls —
// the write path without HTTP around it — and leaves the store as it
// found it.
func probeMutate(r *run, g *rig) error {
	smp := newSampler(g.c, rand.New(rand.NewSource(r.seed)))
	parent := imdb.Query("Q19").String()
	var ins, del []float64
	for i := 0; i < r.sz.mutations; i++ {
		title := smp.titles[smp.rng.Intn(len(smp.titles))]
		_, shows := g.c.showsByTitle(title)
		var n int
		var err error
		ins = append(ins, us(g.tr.timed("legodb.insert", -1, i, func() {
			n, err = g.t.store.InsertChild(parent, legodb.Params{"c1": title}, fmt.Sprintf("<aka>probe %d</aka>", i))
		})))
		if err == nil && n != shows {
			err = fmt.Errorf("insert under %q extended %d shows, want %d", title, n, shows)
		}
		r.check(err)
	}
	for i := 0; i < r.sz.mutations; i++ {
		var n int
		var err error
		del = append(del, us(g.tr.timed("legodb.delete", -1, i, func() {
			n, err = g.t.store.DeleteWhere(queryAkaByText, legodb.Params{"c1": fmt.Sprintf("probe %d", i)})
		})))
		if err == nil && n < 1 {
			err = fmt.Errorf("delete of aka %d removed %d rows", i, n)
		}
		r.check(err)
	}
	r.set("legodb.insert_us", median(ins), len(ins))
	r.set("legodb.delete_us", median(del), len(del))
	return nil
}

// twinParams binds a request's parameters the way the catalog types the
// compared column: years are integers, everything else strings.
func twinParams(q *request) engine.Params {
	p := make(engine.Params, len(q.params))
	for k, v := range q.params {
		p[k] = engine.StrVal(v)
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && q.class == "year" {
			p[k] = engine.IntVal(n)
		}
	}
	return p
}

// hot runs fn once untimed and then once timed inside a span. The probes
// call the same request through the store and through the twin in turn;
// whichever ran second would otherwise find its rows in the processor's
// cache and the other's evicted.
func hot(tr *tracer, name string, parent, req int, fn func()) time.Duration {
	fn()
	return tr.timed(name, parent, req, fn)
}

// twinTimes is how long each layer of the request path took for one
// request replayed on the twin.
type twinTimes struct{ parse, translate, execute, stringify time.Duration }

// replayOnTwin walks one request through the request path's layers by
// their exported functions — parse, translate, execute, stringify — with
// a span around each, and checks the twin's answer too. The probes ask
// for warm calls (see hot); the traced slice replays once.
func replayOnTwin(g *rig, parent, id int, q *request, warm bool) (twinTimes, error) {
	timed := g.tr.timed
	if warm {
		timed = func(name string, parent, req int, fn func()) time.Duration { return hot(g.tr, name, parent, req, fn) }
	}
	var tt twinTimes
	var err error
	var parsed *xquery.Query
	tt.parse = timed("xquery.parse", parent, id, func() { parsed, err = xquery.Parse(q.query) })
	if err != nil {
		return tt, err
	}
	var sq *sqlast.Query
	tt.translate = timed("xquery.translate_req", parent, id, func() {
		sq, err = xquery.Translate(parsed, g.twin.ps, g.twin.cat)
	})
	if err != nil {
		return tt, err
	}
	var rs *engine.ResultSet
	tt.execute = timed("engine.execute", parent, id, func() {
		rs, err = g.twin.db.ExecuteContext(context.Background(), sq, twinParams(q))
	})
	if err != nil {
		return tt, err
	}
	var rows [][]string
	tt.stringify = timed("engine.stringify", parent, id, func() {
		rows = make([][]string, len(rs.Rows))
		for i, row := range rs.Rows {
			cells := make([]string, len(row))
			for k, v := range row {
				cells[k] = v.String()
			}
			rows[i] = cells
		}
	})
	if m := digestRows(rows, q.keys); m != q.want {
		return tt, fmt.Errorf("twin answers %s %v with %d rows, want %d", q.class, q.params, m.n, q.want.n)
	}
	return tt, nil
}

// probeRequests sends each request over HTTP, then directly through the
// store, then through the twin's layers, one after the other on one
// goroutine. Differences between nested calls are the layers in between.
func probeRequests(r *run, g *rig, pool []*request) error {
	ctx := context.Background()
	cl := newClient(g.t)
	defer cl.close()
	var httpOver, runOver, prepare, parse, translate, execute, stringify []float64
	bytes := 0
	start := g.twin.db.Measured()
	for i, q := range pool {
		root := g.tr.begin("request", -1, i)
		var body []byte
		var err error
		viaHTTP := hot(g.tr, "server.http", root, i, func() { body, err = cl.do(q) })
		if err == nil {
			err = q.check(body)
		}
		r.check(err)
		bytes += len(body)
		direct := hot(g.tr, "legodb.query", root, i, func() {
			_, err = g.t.store.QueryContext(ctx, q.query, legodb.Params(q.params))
		})
		if err != nil {
			return err
		}
		var pq *legodb.PreparedQuery
		prepare = append(prepare, us(hot(g.tr, "legodb.prepare", root, i, func() { pq, err = g.t.store.Prepare(q.query) })))
		if err != nil {
			return err
		}
		prepared := hot(g.tr, "legodb.run", root, i, func() { _, err = pq.RunContext(ctx, legodb.Params(q.params)) })
		if err != nil {
			return err
		}
		sp := g.tr.begin("twin", root, i)
		tt, err := replayOnTwin(g, sp, i, q, true)
		g.tr.end(sp)
		g.tr.end(root)
		r.check(err)
		httpOver = append(httpOver, us(viaHTTP-direct))
		runOver = append(runOver, us(prepared-tt.execute))
		parse = append(parse, us(tt.parse))
		translate = append(translate, us(tt.translate))
		execute = append(execute, us(tt.execute))
		stringify = append(stringify, us(tt.stringify))
	}
	used := g.twin.db.Measured()
	r.set("xquery.parse_us", median(parse), len(parse))
	r.set("xquery.translate_req_us", median(translate), len(translate))
	r.set("engine.execute_us", median(execute), len(execute))
	r.set("engine.stringify_us", median(stringify), len(stringify))
	r.set("legodb.prepare_us", median(prepare), len(prepare))
	r.set("legodb.run_overhead_us", median(runOver), len(runOver))
	r.set("server.http_overhead_us", median(httpOver), len(httpOver))
	r.set("server.response_bytes", float64(bytes)/float64(len(pool)), len(pool))
	out := float64(used.TuplesOut - start.TuplesOut)
	if out == 0 {
		out = 1
	}
	r.set("engine.tuples_read_per_row_out", float64(used.TuplesRead-start.TuplesRead)/out, 1)
	r.set("engine.probes_n", float64(used.Probes-start.Probes), 1)
	r.set("engine.bytes_read", used.BytesRead-start.BytesRead, 1)
	return nil
}
