package core

import (
	"math"
	"testing"

	"legodb/internal/xquery"
)

func wl(entries ...struct {
	text   string
	name   string
	weight float64
}) *xquery.Workload {
	w := &xquery.Workload{}
	for _, e := range entries {
		q := xquery.MustParse(e.text)
		q.Name = e.name
		w.Add(q, e.weight)
	}
	return w
}

type we = struct {
	text   string
	name   string
	weight float64
}

const (
	qTitle = `FOR $v IN imdb/show RETURN $v/title`
	qYear  = `FOR $v IN imdb/show RETURN $v/year`
	qBoth  = `FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title, $v/year`
)

func TestDriftScoreIdentical(t *testing.T) {
	a := wl(we{qTitle, "Q1", 1}, we{qYear, "Q2", 3})
	b := wl(we{qTitle, "", 2}, we{qYear, "", 6}) // same distribution, scaled, unnamed
	if d := DriftScore(a, b); d != 0 {
		t.Errorf("identical distributions drift = %v, want 0 (names and scale must not register)", d)
	}
}

func TestDriftScoreDisjoint(t *testing.T) {
	a := wl(we{qTitle, "", 1})
	b := wl(we{qYear, "", 1})
	if d := DriftScore(a, b); d != 1 {
		t.Errorf("disjoint workloads drift = %v, want 1", d)
	}
}

func TestDriftScorePartialShift(t *testing.T) {
	// Advised 50/50, observed 90/10 over the same two shapes:
	// TV distance = (|0.5-0.9| + |0.5-0.1|)/2 = 0.4.
	a := wl(we{qTitle, "", 1}, we{qYear, "", 1})
	b := wl(we{qTitle, "", 9}, we{qYear, "", 1})
	if d := DriftScore(a, b); math.Abs(d-0.4) > 1e-12 {
		t.Errorf("drift = %v, want 0.4", d)
	}
}

func TestDriftScoreNewShapeMass(t *testing.T) {
	// Observed splits half its mass onto a shape the advisor never saw:
	// TV = (|1-0.5| + 0.5)/2 = 0.5.
	a := wl(we{qTitle, "", 1})
	b := wl(we{qTitle, "", 1}, we{qBoth, "", 1})
	if d := DriftScore(a, b); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("drift = %v, want 0.5", d)
	}
}

func TestDriftScoreSymmetric(t *testing.T) {
	a := wl(we{qTitle, "", 3}, we{qYear, "", 1})
	b := wl(we{qYear, "", 2}, we{qBoth, "", 5})
	if d1, d2 := DriftScore(a, b), DriftScore(b, a); d1 != d2 {
		t.Errorf("asymmetric drift: %v vs %v", d1, d2)
	}
}

func TestDriftScoreEmpty(t *testing.T) {
	full := wl(we{qTitle, "", 1})
	if d := DriftScore(nil, nil); d != 0 {
		t.Errorf("nil/nil drift = %v, want 0", d)
	}
	if d := DriftScore(&xquery.Workload{}, &xquery.Workload{}); d != 0 {
		t.Errorf("empty/empty drift = %v, want 0", d)
	}
	if d := DriftScore(nil, full); d != 1 {
		t.Errorf("nil/full drift = %v, want 1", d)
	}
	if d := DriftScore(full, nil); d != 1 {
		t.Errorf("full/nil drift = %v, want 1", d)
	}
	// Zero-weight entries carry no mass.
	zero := wl(we{qTitle, "", 0})
	if d := DriftScore(zero, full); d != 1 {
		t.Errorf("zero-mass/full drift = %v, want 1", d)
	}
}

func TestDriftScoreUpdates(t *testing.T) {
	q := xquery.MustParse(qTitle)
	upd := xquery.MustParseUpdate("DELETE imdb/show")
	a := &xquery.Workload{}
	a.Add(q, 1)
	b := &xquery.Workload{}
	b.Add(q, 1)
	b.AddUpdate(upd, 1)
	d := DriftScore(a, b)
	if math.Abs(d-0.5) > 1e-12 {
		t.Errorf("update-shape drift = %v, want 0.5", d)
	}
}

// TestDriftScoreLocatedUpdates: an observed update carries its locate,
// a declared one usually does not. A located update counts as the
// declared bare update of the same kind and path, and only as that.
func TestDriftScoreLocatedUpdates(t *testing.T) {
	located := func(kind xquery.UpdateKind, path string) *xquery.Update {
		u := xquery.MustParseUpdate(kind.String() + " " + path)
		u.Locate = xquery.MustParse(`FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v`)
		return u
	}
	for _, tc := range []struct {
		name     string
		declared *xquery.Update
		observed *xquery.Update
		want     float64
	}{
		{"identical", xquery.MustParseUpdate("INSERT imdb/show/aka"), xquery.MustParseUpdate("INSERT imdb/show/aka"), 0},
		{"located vs bare", xquery.MustParseUpdate("INSERT imdb/show/aka"), located(xquery.InsertUpdate, "imdb/show/aka"), 0},
		{"different path", xquery.MustParseUpdate("INSERT imdb/show/aka"), located(xquery.InsertUpdate, "imdb/show/review"), 0.5},
		{"different kind", xquery.MustParseUpdate("INSERT imdb/show/aka"), located(xquery.DeleteUpdate, "imdb/show/aka"), 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Both sides also serve one query with the same weight, so a
			// mismatched update moves exactly half the mass.
			a := wl(we{qTitle, "", 1})
			a.AddUpdate(tc.declared, 1)
			b := wl(we{qTitle, "", 1})
			b.AddUpdate(tc.observed, 1)
			if d := DriftScore(a, b); math.Abs(d-tc.want) > 1e-12 {
				t.Errorf("drift = %v, want %v", d, tc.want)
			}
		})
	}
}
