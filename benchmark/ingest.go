package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"legodb"
	"legodb/internal/imdb"
	"legodb/internal/xmltree"
)

// pending is an aka some client inserted and has not deleted yet.
type pending struct {
	aka     string
	parents int
}

// mutator is one client's side of the ingest-mutate mix: 50 % shows by
// year, 25 % insert an <aka> under the shows of a title, 25 % delete the
// oldest aka this client inserted — so the store's size stays level.
// Each client owns its state; only its own goroutine touches it.
type mutator struct {
	client  int
	smp     *sampler
	parents map[string]int // title → shows bearing it, from the oracle
	queue   []pending
	serial  int
	sent    pending // the insert awaiting its answer
}

func newMutator(c *corpus, seed int64, client int) *mutator {
	m := &mutator{client: client, parents: make(map[string]int),
		smp: newSampler(c, rand.New(rand.NewSource(seed*31+int64(client))))}
	for _, t := range m.smp.titles {
		m.parents[t]++
	}
	return m
}

func (m *mutator) next() *request {
	x := m.smp.rng.Float64()
	switch {
	case x < 0.50:
		return m.smp.yearRequest()
	case x < 0.75 || len(m.queue) == 0:
		title := m.smp.titles[m.smp.rng.Intn(len(m.smp.titles))]
		m.serial++
		m.sent = pending{aka: fmt.Sprintf("bench %d %d", m.client, m.serial), parents: m.parents[title]}
		r := newRequest("insert", "insert", imdb.Query("Q19").String(),
			map[string]string{"c1": title}, "<aka>"+m.sent.aka+"</aka>")
		r.wantN = m.sent.parents
		return r
	default:
		return m.delete()
	}
}

func (m *mutator) delete() *request {
	p := m.queue[0]
	m.queue = m.queue[1:]
	r := newRequest("delete", "delete", queryAkaByText, map[string]string{"c1": p.aka}, "")
	r.wantN = p.parents
	return r
}

// done keeps the books: an acknowledged insert is owed a delete.
func (m *mutator) done(r *request, err error) {
	if r.path == "insert" && err == nil {
		m.queue = append(m.queue, m.sent)
	}
}

// mutators builds one mutator per client and the source and sink that
// route each client to its own.
func mutators(c *corpus, seed int64) ([]*mutator, source, func(int, *request, error)) {
	muts := make([]*mutator, clients)
	for k := range muts {
		muts[k] = newMutator(c, seed, k)
	}
	return muts, func(k, _ int) *request { return muts[k].next() },
		func(k int, r *request, err error) { muts[k].done(r, err) }
}

// settle deletes every aka still owed a delete, so the store holds
// exactly the loaded documents again.
func settle(r *run, t *tenant, muts []*mutator) {
	cl := newClient(t)
	defer cl.close()
	for _, m := range muts {
		for len(m.queue) > 0 {
			q := m.delete()
			body, err := cl.do(q)
			if err == nil {
				err = q.check(body)
			}
			r.check(err)
		}
	}
}

func ingestReplay(s *sampler, n int) []*request {
	pool := make([]*request, n)
	for i := range pool {
		pool[i] = s.yearRequest()
	}
	return pool
}

// ingestMutate uses the store the other way round: documents arrive as
// XML text over HTTP (set-up), two clients then read, insert and delete
// side by side — writers take the store's write lock, rows land in the
// heap tail behind the column base — and the store is finally saved,
// reopened and published, again and again. A read-path gain bought with
// slower writes, loads or snapshots shows up here.
func ingestMutate(r *run) error {
	c, t, setup, err := setUp(r.seed, r.sz, r.sz.setupRounds)
	if err != nil {
		return err
	}
	defer t.close()
	r.set("setup_s", setup, r.sz.setupRounds)
	path := filepath.Join(r.tmpDir, "ingest.store")
	if err := t.store.SaveFile(path); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.note("load: %.2f MB of XML in %d documents at %.2f MB/s; snapshot after load %.4f stored bytes per XML byte",
		float64(c.xmlBytes)/1e6, len(c.docs), float64(c.xmlBytes)/1e6/setup, float64(fi.Size())/float64(c.xmlBytes))

	muts, next, done := mutators(c, r.seed)
	closedLoop(t, r.warmUp(), next, done, nil)
	b := closedLoop(t, r.dur*7/10, next, done, nil)
	r.absorb(b)
	r.set("ops_per_s", b.perSecond(), b.ops)
	r.set("p50_ms", median(b.lat["insert"]), len(b.lat["insert"]))
	r.set("second_p50_ms", median(b.lat["year"]), len(b.lat["year"]))
	r.note("mixed closed loop, %d clients: %d operations; p50 insert %.3f delete %.3f read %.3f ms",
		clients, b.ops, median(b.lat["insert"]), median(b.lat["delete"]), median(b.lat["year"]))
	settle(r, t, muts)

	// Now that every insert has been deleted again, the live store, a
	// snapshot of it reopened, and the original documents must agree.
	// The comparison is slow, so it is made once, outside the timed cycles.
	cycle := func() (saved, opened time.Duration, docs []*xmltree.Node, err error) {
		start := time.Now()
		if err = t.store.SaveFile(path); err != nil {
			return
		}
		saved = time.Since(start)
		start = time.Now()
		reopened, err := legodb.OpenStoreFile(path)
		if err != nil {
			return
		}
		opened = time.Since(start)
		docs, err = reopened.Publish()
		return
	}
	_, _, docs, err := cycle()
	if err == nil {
		var live []*xmltree.Node
		if live, err = t.store.Publish(); err == nil {
			if err = sameDocuments("the live store", live, c.docs); err == nil {
				err = sameDocuments("the reopened snapshot", docs, live)
			}
		}
	}
	r.check(err)

	var save, open []float64
	for start := time.Now(); len(save) == 0 || time.Since(start) < r.dur*3/10; {
		saved, opened, docs, err := cycle()
		if err == nil && len(docs) != len(c.docs) {
			err = fmt.Errorf("reopened snapshot publishes %d documents, want %d", len(docs), len(c.docs))
		}
		r.check(err)
		save, open = append(save, ms(saved)), append(open, ms(opened))
	}
	r.note("snapshot cycles %d: SaveFile p50 %.2f ms, OpenStoreFile p50 %.2f ms", len(save), median(save), median(open))
	return nil
}

func ingestSlice(r *run, g *rig) error {
	muts, next, done := mutators(g.c, r.seed)
	loopSlice(r, g, next, done)
	settle(r, g.t, muts)
	return nil
}
