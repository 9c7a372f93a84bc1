package legodb

import (
	"sync"

	"legodb/internal/xquery"
)

// Workload observation: the store accumulates an observed workload from
// the traffic it actually serves, so the advisor can be re-run against
// reality instead of the declared workload (the adaptation loop's first
// layer). Each executed query or mutation contributes one observation to
// its shape — the name-stripped canonical rendering, the same text the
// cost cache digests — and the shape's weight is its observed frequency.
//
// Weights age out under a generation decay: every window observations,
// all weights halve and shapes that have decayed to noise are pruned.
// The policy is counted in observations, not wall-clock time, so it is
// deterministic under test and indifferent to idle periods.

// observeWindow is the decay period: after this many observations every
// shape's weight halves.
const observeWindow = 1024

// observePruneBelow drops a shape once decay has pushed its weight under
// this bound (a shape seen once is gone after ~11 windows of silence).
const observePruneBelow = 0.5

type observedShape struct {
	query  *xquery.Query
	update *xquery.Update
	weight float64
}

// workloadObserver accumulates shape frequencies. It has its own mutex —
// observations are recorded after the store's lock is released, so a
// slow observer can never extend the serving critical section.
type workloadObserver struct {
	mu     sync.Mutex
	shapes map[string]*observedShape
	order  []string // insertion order: ObservedWorkload is deterministic
	total  uint64   // observations recorded since the store opened
	window int      // observations since the last decay
}

func newWorkloadObserver() *workloadObserver {
	return &workloadObserver{shapes: make(map[string]*observedShape)}
}

// queryShape returns the name-stripped copy of q and the key it is
// observed under: its canonical text. Stripping the name makes the key
// insensitive to report labels ("(: Q1 :)" comments), so the same query
// text observed from different callers lands on one shape. A prepared
// query computes both once.
func queryShape(q *xquery.Query) (*xquery.Query, string) {
	c := *q
	c.Name = ""
	return &c, "q" + c.String()
}

// observeQuery records one execution of a query shape under its key (see
// queryShape); like observeUpdate it reports whether the observation
// completed a generation.
func (o *workloadObserver) observeQuery(shape *xquery.Query, key string) bool {
	return o.record(key, func() *observedShape { return &observedShape{query: shape} })
}

// updateShape returns the name-stripped copy of u and its canonical
// text, symmetric with queryShape: the observed workload must not alias
// caller memory, and an update shape must not keep the first caller's
// report label ("(: W1 :)" comments).
func updateShape(u *xquery.Update) (*xquery.Update, string) {
	c := *u
	c.Name = ""
	return &c, c.String()
}

func (o *workloadObserver) observeUpdate(u *xquery.Update) bool {
	shape, key := updateShape(u)
	return o.record("u"+key, func() *observedShape { return &observedShape{update: shape} })
}

// record counts one observation and reports whether it completed a
// generation (the weights just decayed).
func (o *workloadObserver) record(key string, mk func() *observedShape) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.shapes[key]
	if s == nil {
		s = mk()
		o.shapes[key] = s
		o.order = append(o.order, key)
	}
	s.weight++
	o.total++
	o.window++
	if o.window < observeWindow {
		return false
	}
	o.decayLocked()
	return true
}

// decayLocked halves every weight and prunes shapes that fell below the
// noise floor, compacting the order slice in place.
func (o *workloadObserver) decayLocked() {
	o.window = 0
	kept := o.order[:0]
	for _, key := range o.order {
		s := o.shapes[key]
		s.weight /= 2
		if s.weight < observePruneBelow {
			delete(o.shapes, key)
			continue
		}
		kept = append(kept, key)
	}
	o.order = kept
}

// workload snapshots the observed shapes as a weighted workload, in
// first-observed order.
func (o *workloadObserver) workload() (*xquery.Workload, uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	w := &xquery.Workload{}
	for _, key := range o.order {
		s := o.shapes[key]
		if s.query != nil {
			w.Add(s.query, s.weight)
		} else {
			w.AddUpdate(s.update, s.weight)
		}
	}
	return w, o.total
}

// ObservedWorkload snapshots the workload the store has actually served:
// one entry per distinct query/mutation shape, weighted by decayed
// observation frequency, plus the total number of observations recorded.
// The snapshot is independent of the store — the adaptation loop can
// digest, cost and search it while traffic keeps accumulating.
func (s *Store) ObservedWorkload() (*xquery.Workload, uint64) {
	return s.obs.workload()
}
