package core

import (
	"math"

	"legodb/internal/xquery"
)

// Workload drift: the adaptation loop compares the workload a store was
// advised for against the workload it actually serves. Both are reduced
// to distributions over canonical shape texts (the same renderings
// WorkloadID digests, with query report names stripped so labels do not
// register as drift), and compared by total variation distance — half
// the L1 distance between the normalized weight vectors over the union
// of shapes. The metric is symmetric (up to the update fold below),
// ranges over [0, 1], and by
// construction accounts both for weight shifts on shared shapes and for
// the full mass of shapes only one side has seen: a completely disjoint
// observed workload scores 1, an identical one scores 0.
//
// An observed update carries the locate it found its targets with
// ("INSERT imdb/show/aka AT FOR ..."), while a declared one is usually
// bare ("INSERT imdb/show/aka"). A located observed update counts as the
// declared bare update of the same kind and path when the advised
// workload has one: serving what was declared is not drift.

// DriftScore measures how far the observed workload has drifted from the
// advised one, in [0, 1]. A nil or empty workload counts as having no
// shape mass: two empty workloads score 0, an empty against a non-empty
// scores 1.
func DriftScore(advised, observed *xquery.Workload) float64 {
	a := shapeDistribution(advised, nil)
	b := shapeDistribution(observed, a)
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	d := 0.0
	for k, av := range a {
		d += math.Abs(av - b[k])
	}
	for k, bv := range b {
		if _, shared := a[k]; !shared {
			d += bv
		}
	}
	return d / 2
}

// shapeDistribution normalizes a workload's weights into a distribution
// over canonical shape keys. Entries with non-positive weight carry no
// mass and are dropped. A located update whose bare form (same kind and
// path, no locate) is a key of declared counts under that key.
func shapeDistribution(w *xquery.Workload, declared map[string]float64) map[string]float64 {
	if w == nil {
		return nil
	}
	m := make(map[string]float64, len(w.Entries)+len(w.Updates))
	total := 0.0
	for _, e := range w.Entries {
		if e.Weight <= 0 {
			continue
		}
		c := *e.Query
		c.Name = ""
		m["q"+c.String()] += e.Weight
		total += e.Weight
	}
	for _, u := range w.Updates {
		if u.Weight <= 0 {
			continue
		}
		key := "u" + u.Update.String()
		if u.Update.Locate != nil {
			bare := *u.Update
			bare.Locate = nil
			if k := "u" + bare.String(); declared[k] > 0 {
				key = k
			}
		}
		m[key] += u.Weight
		total += u.Weight
	}
	if total == 0 {
		return nil
	}
	for k := range m {
		m[k] /= total
	}
	return m
}
