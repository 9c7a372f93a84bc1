package legodb_test

// BenchmarkDriftPayoff lives in the external test package because it
// drives the drift controller (internal/adapt), which imports legodb.

import (
	"context"
	"sync"
	"testing"
	"time"

	"legodb"
	"legodb/internal/adapt"
	"legodb/internal/imdb"
	"legodb/internal/optimizer"
)

// driftLookups is the flipped workload pushed at a store advised for
// publishing: point lookups that want scalars inlined, the opposite of
// what the all-outlined baseline is good at.
var driftLookups = []struct {
	text   string
	params legodb.Params
}{
	{`FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title, $v/year`, legodb.Params{"c1": "1995"}},
	{`FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title`, legodb.Params{"c1": "1999"}},
	{`FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/year, $v/box_office`, legodb.Params{"c1": "zzz"}},
}

// queryDrift runs the i-th flipped lookup.
func queryDrift(store *legodb.Store, i int) error {
	q := driftLookups[i%len(driftLookups)]
	_, err := store.Query(q.text, q.params)
	return err
}

// measuredLookupCost executes the flipped workload iters times and
// converts the engine's counter deltas into cost units with the
// optimizer's own constants — the formula of the cost-model ablation,
// so estimated and measured wins are comparable.
func measuredLookupCost(b *testing.B, store *legodb.Store, m optimizer.CostModel, iters int) float64 {
	b.Helper()
	before := store.Measured()
	for i := 0; i < iters*len(driftLookups); i++ {
		if err := queryDrift(store, i); err != nil {
			b.Fatal(err)
		}
	}
	d := store.Measured()
	scans := float64(d.Scans - before.Scans)
	bytes := d.BytesRead - before.BytesRead
	tuples := float64(d.TuplesRead - before.TuplesRead)
	probes := float64(d.Probes - before.Probes)
	cost := m.SeekCost*scans + bytes/m.PageSize*m.PageIOCost + tuples*m.CPUTupleCost + probes*m.ProbeCost
	return cost / float64(iters)
}

// BenchmarkDriftPayoff measures the adaptation loop end to end. A store
// advised for a publish workload (installed all-outlined) has its
// traffic flip to point lookups; the drift controller detects the flip
// through its hysteresis gates, re-advises and migrates the store live
// while client goroutines keep querying. Reported per op:
// post_migrate_cost_ratio, the measured engine cost of the flipped
// workload on the migrated configuration over the stale one (< 1 is the
// win), and cutover_ms, how long the migration held the write lock.
func BenchmarkDriftPayoff(b *testing.B) {
	const (
		shows     = 200
		observeN  = 64
		costIters = 5
		clients   = 4
	)
	ctx := context.Background()
	model := optimizer.DefaultModel()
	var ratio, cutoverMs float64
	for i := 0; i < b.N; i++ {
		eng, err := legodb.New(imdb.SchemaText)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.SetStatisticsText(imdb.StatsText); err != nil {
			b.Fatal(err)
		}
		if err := eng.AddQuery("publish", `FOR $v IN imdb/show RETURN $v`, 1); err != nil {
			b.Fatal(err)
		}
		baseline, err := eng.EvaluateFixed("all-outlined")
		if err != nil {
			b.Fatal(err)
		}
		store, err := baseline.Open()
		if err != nil {
			b.Fatal(err)
		}
		if err := store.Load(imdb.Generate(imdb.GenOptions{Shows: shows, Seed: 17})); err != nil {
			b.Fatal(err)
		}
		ctrl := adapt.New(eng, store, eng.Workload(), adapt.Config{
			SearchTimeout:  30 * time.Second,
			MaxEvaluations: 400,
		})

		// The declared workload: no drift.
		for j := 0; j < 8; j++ {
			if _, err := store.Query(`FOR $v IN imdb/show RETURN $v`, nil); err != nil {
				b.Fatal(err)
			}
		}
		if d, err := ctrl.Check(ctx, false); err != nil {
			b.Fatal(err)
		} else if d.Migrated {
			b.Fatalf("undrifted store migrated: %+v", d)
		}

		// The workload flips to lookups; price it on the stale layout.
		for j := 0; j < observeN; j++ {
			if err := queryDrift(store, j); err != nil {
				b.Fatal(err)
			}
		}
		stale := measuredLookupCost(b, store, model, costIters)
		if stale <= 0 {
			b.Fatalf("measured stale cost is %v", stale)
		}

		// The controller reacts while clients keep querying.
		stop := make(chan struct{})
		errs := make(chan error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for j := c; ; j++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := queryDrift(store, j); err != nil {
						errs <- err
						return
					}
				}
			}(c)
		}
		dec, err := ctrl.Check(ctx, false)
		close(stop)
		wg.Wait()
		close(errs)
		if err != nil {
			b.Fatal(err)
		}
		if err := <-errs; err != nil {
			b.Fatalf("client failed during migration: %v", err)
		}
		if !dec.Migrated {
			b.Fatalf("drifted store did not migrate: %+v", dec)
		}
		ratio += measuredLookupCost(b, store, model, costIters) / stale
		cutoverMs += float64(dec.Migration.Cutover.Microseconds()) / 1000
	}
	b.ReportMetric(ratio/float64(b.N), "post_migrate_cost_ratio")
	b.ReportMetric(cutoverMs/float64(b.N), "cutover_ms")
}
