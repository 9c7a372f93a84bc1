package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"legodb/internal/imdb"
	"legodb/internal/xmltree"
)

const (
	absentShare    = 0.10 // lookups for values no document holds
	tenantName     = "imdb"
	queryYear      = `FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title, $v/year`
	queryAkaByText = `FOR $k IN imdb/show/aka WHERE $k = c1 RETURN $k`
)

// corpus is the generated document set of one run.
type corpus struct {
	docs     []*xmltree.Node
	xml      []string
	xmlBytes int
}

// genCorpus derives the run's documents from its seed: the same seed gives
// the same documents, another seed gives other titles, years and names.
func genCorpus(seed int64, sz sizes) *corpus {
	c := &corpus{}
	for i := 0; i < sz.docs; i++ {
		doc := imdb.Generate(imdb.GenOptions{Shows: sz.shows, Seed: seed*1000 + int64(i)})
		text := doc.String()
		c.docs = append(c.docs, doc)
		c.xml = append(c.xml, text)
		c.xmlBytes += len(text)
	}
	return c
}

// multiset is an order-free digest of result rows: how many, and the
// wrapping sum of their hashes. Two results with equal digests hold the
// same rows whatever order the executor produced them in.
type multiset struct {
	n   int
	sum uint64
}

// add hashes one row, FNV-1a over its cells with a separator after each.
// It runs for every served row between a client's requests, so it must
// not allocate.
func (m *multiset) add(cells ...string) {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range cells {
		for i := 0; i < len(c); i++ {
			h = (h ^ uint64(c[i])) * prime
		}
		h = (h ^ 0x1f) * prime
	}
	m.n++
	m.sum += h
}

// keys says which rows of an answer carry store keys. Rows of a
// whole-element result are stored rows: surrogate key first, parent key
// last, then NULL padding up to the widest block of the union. No oracle
// outside the store can know the keys, so digests leave them out.
type keys int

const (
	keysNone  keys = iota // scalar returns only
	keysAll               // every row is a stored row
	keysMixed             // Q13: join rows (name, title, year) beside aka rows (key, aka, key); a name is never a number
)

func isNumber(s string) bool {
	_, err := strconv.Atoi(s)
	return err == nil
}

// digestRows digests served rows, without their keys.
func digestRows(rows [][]string, k keys) multiset {
	var m multiset
	for _, r := range rows {
		for k != keysNone && len(r) > 0 && r[len(r)-1] == "NULL" {
			r = r[:len(r)-1]
		}
		if len(r) >= 2 && (k == keysAll || k == keysMixed && isNumber(r[0]) && isNumber(r[len(r)-1])) {
			r = r[1 : len(r)-1]
		}
		m.add(r...)
	}
	return m
}

// request is one generated operation with the answer it must produce.
type request struct {
	class  string
	path   string // "query", "insert" or "delete"
	query  string
	params map[string]string
	body   []byte
	keys   keys
	want   multiset // query answers
	wantN  int      // parents extended / rows removed by a mutation
}

func newRequest(class, path, query string, params map[string]string, fragment string) *request {
	msg := map[string]any{"query": query}
	if params != nil {
		msg["params"] = params
	}
	if fragment != "" {
		msg["fragment"] = fragment
	}
	body, err := json.Marshal(msg)
	if err != nil {
		panic(err) // strings and maps of strings always encode
	}
	return &request{class: class, path: path, query: query, params: params, body: body}
}

func text(n *xmltree.Node, child string) string {
	if c := n.Child(child); c != nil {
		return c.Text
	}
	return "NULL"
}

// The oracle: expected answers are computed by walking the generated
// documents, never by parsing, translating or executing a query. The row
// shapes are those of the fixed all-inlined configuration every store
// workload serves.

func (c *corpus) each(kind string, fn func(*xmltree.Node)) {
	for _, d := range c.docs {
		for _, n := range d.Children {
			if n.Name == kind {
				fn(n)
			}
		}
	}
}

func showRows(m *multiset, s *xmltree.Node) {
	typ, _ := s.Attr("type")
	m.add(typ, text(s, "title"), text(s, "year"), text(s, "box_office"),
		text(s, "video_sales"), text(s, "seasons"), text(s, "description"))
	for _, k := range s.Children {
		switch k.Name {
		case "aka":
			m.add(k.Text)
		case "reviews":
			m.add(k.Children[0].Name, k.Children[0].Text)
		case "episodes":
			m.add(text(k, "name"), text(k, "guest_director"))
		}
	}
}

func actorRows(m *multiset, a *xmltree.Node) {
	birthday, bio := "NULL", "NULL"
	if b := a.Child("biography"); b != nil {
		birthday, bio = text(b, "birthday"), text(b, "text")
	}
	m.add(text(a, "name"), birthday, bio)
	for _, p := range a.ChildrenNamed("played") {
		m.add(text(p, "title"), text(p, "year"), text(p, "character"), text(p, "order_of_appearance"))
		for _, w := range p.ChildrenNamed("award") {
			m.add(text(w, "result"), text(w, "award_name"))
		}
	}
}

// byYear answers every shows-by-year lookup at once: year → (title, year)
// rows. Clients draw year requests between requests, so each must be a
// map lookup and not a walk.
func (c *corpus) byYear() map[string]multiset {
	years := make(map[string]multiset)
	c.each("show", func(s *xmltree.Node) {
		m := years[text(s, "year")]
		m.add(text(s, "title"), text(s, "year"))
		years[text(s, "year")] = m
	})
	return years
}

func (c *corpus) showsByTitle(title string) (m multiset, shows int) {
	c.each("show", func(s *xmltree.Node) {
		if text(s, "title") == title {
			shows++
			showRows(&m, s)
		}
	})
	return m, shows
}

func (c *corpus) birthdaysByActor(name string) multiset {
	var m multiset
	c.each("actor", func(a *xmltree.Node) {
		if text(a, "name") != name {
			return
		}
		// The all-inlined layout keeps biography in the actor's own row,
		// so an actor without one answers with a NULL birthday, not with
		// no row.
		if b := a.Child("biography"); b != nil {
			m.add(text(b, "birthday"))
		} else {
			m.add("NULL")
		}
	})
	return m
}

func (c *corpus) directorsByName(name string) multiset {
	var m multiset
	c.each("director", func(d *xmltree.Node) {
		if text(d, "name") != name {
			return
		}
		m.add(name)
		for _, x := range d.ChildrenNamed("directed") {
			// The shredder files an <info> child under the wildcard that
			// follows it in the content model, never in the info column.
			if info := x.Child("info"); info != nil {
				m.add(text(x, "title"), text(x, "year"), "NULL", "info", info.Text)
			} else {
				m.add(text(x, "title"), text(x, "year"), "NULL", "NULL", "NULL")
			}
		}
	})
	return m
}

func (c *corpus) allActors() multiset {
	var m multiset
	c.each("actor", func(a *xmltree.Node) { actorRows(&m, a) })
	return m
}

func (c *corpus) allShows() multiset {
	var m multiset
	c.each("show", func(s *xmltree.Node) { showRows(&m, s) })
	return m
}

// sampler draws lookup values from the corpus: mostly values some
// document holds, sometimes values none does.
type sampler struct {
	rng    *rand.Rand
	c      *corpus
	years  map[string]multiset
	titles []string
	actors []string
	direct []string
}

func newSampler(c *corpus, rng *rand.Rand) *sampler {
	s := &sampler{rng: rng, c: c, years: c.byYear()}
	c.each("show", func(n *xmltree.Node) { s.titles = append(s.titles, text(n, "title")) })
	c.each("actor", func(n *xmltree.Node) { s.actors = append(s.actors, text(n, "name")) })
	c.each("director", func(n *xmltree.Node) { s.direct = append(s.direct, text(n, "name")) })
	return s
}

func (s *sampler) pick(from []string, absent string) string {
	if s.rng.Float64() < absentShare {
		return fmt.Sprintf("%s %d", absent, s.rng.Intn(1000))
	}
	return from[s.rng.Intn(len(from))]
}

func (s *sampler) yearRequest() *request {
	year := fmt.Sprint(1800 + s.rng.Intn(301))
	if s.rng.Float64() < absentShare {
		year = fmt.Sprint(2200 + s.rng.Intn(300))
	}
	r := newRequest("year", "query", queryYear, map[string]string{"c1": year}, "")
	r.want = s.years[year]
	return r
}

// pointRequest draws one request of the serve-point mix: 60 % shows by
// year, 20 % Q19 show by title, 10 % Q8 actor by name, 10 % Q20 director
// by name.
func (s *sampler) pointRequest() *request {
	switch x := s.rng.Float64(); {
	case x < 0.60:
		return s.yearRequest()
	case x < 0.80:
		title := s.pick(s.titles, "no such title")
		r := newRequest("title", "query", imdb.Query("Q19").String(), map[string]string{"c1": title}, "")
		r.want, _ = s.c.showsByTitle(title)
		r.keys = keysAll
		return r
	case x < 0.90:
		name := s.pick(s.actors, "Nobody")
		r := newRequest("actor", "query", imdb.Query("Q8").String(), map[string]string{"c1": name}, "")
		r.want = s.c.birthdaysByActor(name)
		return r
	default:
		name := s.pick(s.direct, "Nobody")
		r := newRequest("director", "query", imdb.Query("Q20").String(), map[string]string{"c1": name}, "")
		r.want = s.c.directorsByName(name)
		r.keys = keysAll
		return r
	}
}

func (s *sampler) pointPool(n int) []*request {
	pool := make([]*request, n)
	for i := range pool {
		pool[i] = s.pointRequest()
	}
	return pool
}
