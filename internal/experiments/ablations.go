package experiments

import (
	"context"
	"fmt"
	"time"

	"legodb/internal/colfile"
	"legodb/internal/core"
	"legodb/internal/engine"
	"legodb/internal/imdb"
	"legodb/internal/optimizer"
	"legodb/internal/relational"
	"legodb/internal/shred"
	"legodb/internal/sqlast"
	"legodb/internal/xmltree"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

// AblationThreshold quantifies the early-stopping optimization Section
// 5.2 suggests ("stop the search as soon as the improvement falls below
// a threshold"): iterations and final cost for several thresholds, on
// both paper workloads with greedy-so.
func AblationThreshold(ctx context.Context) (*Table, error) {
	t := &Table{
		Name:   "ablation-threshold",
		Title:  "Greedy early-stopping: threshold vs iterations and final cost (greedy-so)",
		Header: []string{"workload", "threshold", "iterations", "final cost", "vs converged"},
	}
	for _, wl := range []struct {
		name string
		w    *xquery.Workload
	}{{"lookup", imdb.LookupWorkload()}, {"publish", imdb.PublishWorkload()}} {
		converged := 0.0
		for _, threshold := range []float64{0, 0.01, 0.05, 0.2} {
			opts := searchOptions(core.GreedySO)
			opts.Threshold = threshold
			res, err := core.GreedySearch(ctx, imdb.Schema(), wl.w, imdb.Stats(), opts)
			if err != nil {
				return nil, err
			}
			if threshold == 0 {
				converged = res.Best.Cost
			}
			t.AddRow(wl.name, fmt.Sprintf("%.2f", threshold),
				fmt.Sprintf("%d", len(res.Trace)), f1(res.Best.Cost),
				f2(res.Best.Cost/converged))
		}
	}
	return t, nil
}

// AblationSIvsSO compares the two greedy starting points on both
// workloads: iterations to converge and final cost (the paper observes
// greedy-so converges faster on lookup, greedy-si on publish, and both
// reach similar costs).
func AblationSIvsSO(ctx context.Context) (*Table, error) {
	t := &Table{
		Name:   "ablation-si-vs-so",
		Title:  "greedy-si vs greedy-so: convergence and final costs",
		Header: []string{"workload", "strategy", "initial cost", "iterations", "final cost"},
	}
	for _, wl := range []struct {
		name string
		w    func() *xquery.Workload
	}{{"lookup", imdb.LookupWorkload}, {"publish", imdb.PublishWorkload}} {
		for _, st := range []core.Strategy{core.GreedySO, core.GreedySI} {
			res, err := core.GreedySearch(ctx, imdb.Schema(), wl.w(), imdb.Stats(), searchOptions(st))
			if err != nil {
				return nil, err
			}
			t.AddRow(wl.name, st.String(), f1(res.InitialCost),
				fmt.Sprintf("%d", len(res.Trace)), f1(res.Best.Cost))
		}
	}
	return t, nil
}

// costModelFixture is the shared setup of the cost-model validation
// ablations: generated IMDB data shredded into the map-1 (all-inlined)
// configuration, the workload queries, and their parameter bindings.
type costModelFixture struct {
	shows   int
	doc     *xmltree.Node
	ps      *xschema.Schema
	db      *engine.Database
	cat     *relational.Catalog
	opt     *optimizer.Optimizer
	queries []costModelQuery
	params  engine.Params
}

// indexed returns the fixture under the secondary indexes the cost model
// chooses for the fixture's own queries, equally weighted: the same
// document shredded into a copy of the catalog carrying the flags, and
// every query re-priced with them. The validation then covers the index
// access paths: the engine probes what the optimizer priced.
func (fx *costModelFixture) indexed() (*costModelFixture, error) {
	var tw optimizer.TranslatedWorkload
	for _, q := range fx.queries {
		tw.Queries = append(tw.Queries, optimizer.WeightedQuery{Query: q.sql, Weight: 1})
	}
	cat := fx.cat.Clone()
	cat.SetIndexes(optimizer.ChooseIndexes(cat, tw))
	ix := &costModelFixture{
		shows: fx.shows, doc: fx.doc, ps: fx.ps, params: fx.params,
		db: engine.NewDatabase(cat), cat: cat, opt: optimizer.New(cat),
	}
	if err := shred.New(ix.ps, cat, ix.db).Shred(ix.doc); err != nil {
		return nil, err
	}
	for _, q := range fx.queries {
		est, err := ix.opt.QueryCost(q.sql)
		if err != nil {
			return nil, err
		}
		ix.queries = append(ix.queries, costModelQuery{name: q.name, sql: q.sql, est: est.Cost})
	}
	return ix, nil
}

// freeze round-trips every fixture table through the colfile binary
// format and returns a second database serving the decoded chunks as
// frozen columnar bases — the persistent engine a reopened store
// snapshot runs on. Scans of it charge encoded chunk bytes instead of
// the catalog's estimated row widths, which is exactly where the
// measured cost (and therefore the est/meas calibration) shifts.
func (fx *costModelFixture) freeze() (*engine.Database, error) {
	frozen := engine.NewDatabase(fx.cat)
	for _, name := range fx.cat.Order {
		src := fx.db.Table(name)
		cols := make([]string, len(src.Def.Columns))
		for i, c := range src.Def.Columns {
			cols[i] = c.Name
		}
		data, err := colfile.Encode(&colfile.Table{
			Name:    name,
			Columns: cols,
			Rows:    src.LiveRows(),
			NextID:  src.PeekNextID(),
			Cols:    src.SnapshotColumns(),
		})
		if err != nil {
			return nil, fmt.Errorf("freeze %s: %w", name, err)
		}
		ct, err := colfile.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("freeze %s: %w", name, err)
		}
		base, err := engine.NewColumnBase(ct.Cols, float64(ct.DataBytes))
		if err != nil {
			return nil, fmt.Errorf("freeze %s: %w", name, err)
		}
		dst := frozen.Table(name)
		if err := dst.SetColumnBase(base); err != nil {
			return nil, fmt.Errorf("freeze %s: %w", name, err)
		}
		dst.SetNextID(ct.NextID)
	}
	return frozen, nil
}

// costModelQuery is one translated workload query of the fixture.
type costModelQuery struct {
	name string
	sql  *sqlast.Query
	est  float64
}

func newCostModelFixture() (*costModelFixture, error) {
	const shows = 400
	doc := imdb.Generate(imdb.GenOptions{Shows: shows, Seed: 17})
	s := imdb.Schema()
	stats := xstats.Collect(doc)
	if err := xstats.Annotate(s, stats); err != nil {
		return nil, err
	}
	ps, err := storageMap1(s)
	if err != nil {
		return nil, err
	}
	cat, err := relational.Map(ps)
	if err != nil {
		return nil, err
	}
	db := engine.NewDatabase(cat)
	if err := shred.New(ps, cat, db).Shred(doc); err != nil {
		return nil, err
	}
	opt := optimizer.New(cat)

	title := doc.Path("show", "title")[0].Text
	year := doc.Path("show", "year")[0].Text
	gd := ""
	if g := doc.Path("show", "episodes", "guest_director"); len(g) > 0 {
		gd = g[0].Text
	}
	fx := &costModelFixture{
		shows: shows,
		doc:   doc,
		ps:    ps,
		db:    db,
		cat:   cat,
		opt:   opt,
		params: engine.Params{
			"c1": engine.StrVal(title),
			"c2": engine.StrVal(title),
			"c4": engine.StrVal(gd),
		},
	}
	for _, q := range []struct {
		name string
		src  string
	}{
		{"lookup-title", `FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/title, $v/year`},
		{"lookup-year", `FOR $v IN imdb/show WHERE $v/year = ` + year + ` RETURN $v/title`},
		{"episodes", `FOR $v IN imdb/show RETURN <r> $v/title FOR $e IN $v/episodes WHERE $e/guest_director = c4 RETURN $e/name </r>`},
		{"publish-shows", `FOR $v IN imdb/show RETURN $v`},
	} {
		parsed := xquery.MustParse(q.src)
		parsed.Name = q.name
		sq, err := xquery.Translate(parsed, ps, cat)
		if err != nil {
			return nil, err
		}
		est, err := opt.QueryCost(sq)
		if err != nil {
			return nil, err
		}
		fx.queries = append(fx.queries, costModelQuery{name: q.name, sql: sq, est: est.Cost})
	}
	return fx, nil
}

// costModelTimingIters is how many executions the wall-clock timing of
// measure averages over: the lookup queries finish in microseconds, so
// a single sample is dominated by scheduler noise.
const costModelTimingIters = 20

// measure executes one fixture query and converts the engine's counter
// deltas into cost units with the model's own constants; elapsed is the
// wall clock per execution, averaged over costModelTimingIters runs.
func (fx *costModelFixture) measure(q costModelQuery) (measured float64, elapsed time.Duration, err error) {
	m := fx.opt.Model
	before := fx.db.Stats
	start := time.Now()
	for i := 0; i < costModelTimingIters; i++ {
		if _, err := fx.db.Execute(q.sql, fx.params); err != nil {
			return 0, 0, err
		}
	}
	elapsed = time.Since(start) / costModelTimingIters
	d := fx.db.Stats
	d.BytesRead -= before.BytesRead
	d.TuplesRead -= before.TuplesRead
	d.Probes -= before.Probes
	d.Scans -= before.Scans
	measured = m.SeekCost*float64(d.Scans) +
		d.BytesRead/m.PageSize*m.PageIOCost +
		float64(d.TuplesRead)*m.CPUTupleCost +
		float64(d.Probes)*m.ProbeCost
	// The delta covers all timing iterations of identical work; report
	// the per-execution cost the estimates are compared against.
	return measured / costModelTimingIters, elapsed, nil
}

// AblationCostModel validates the cost model against the execution
// engine, in the spirit of the paper's SQL-Server comparison: generated
// IMDB data is shredded into the all-inlined configuration, the workload
// queries are executed, and the measured work (converted with the same
// cost constants) is compared with the optimizer's estimates. The claim
// to check is agreement in *ranking* and rough magnitude, not identical
// numbers. The queries run twice: under the paper's key-only design, then
// ("+idx" rows) under the index set the cost model chooses for them.
func AblationCostModel(ctx context.Context) (*Table, error) {
	fx, err := newCostModelFixture()
	if err != nil {
		return nil, err
	}
	ix, err := fx.indexed()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:   "ablation-costmodel",
		Title:  fmt.Sprintf("Estimated vs engine-measured cost (all-inlined, %d shows)", fx.shows),
		Header: []string{"query", "estimated", "measured", "est/meas"},
		Notes: "measured = seeks+pages+tuples+probes of the engine, weighted with the model's constants; +idx = under the chosen indexes " +
			fmt.Sprint(ix.cat.Indexes()),
	}
	for _, v := range []struct {
		fx     *costModelFixture
		suffix string
	}{{fx, ""}, {ix, " +idx"}} {
		for _, q := range v.fx.queries {
			measured, _, err := v.fx.measure(q)
			if err != nil {
				return nil, err
			}
			ratio := 0.0
			if measured > 0 {
				ratio = q.est / measured
			}
			t.AddRow(q.name+v.suffix, f1(q.est), f1(measured), f2(ratio))
		}
	}
	return t, nil
}

// AblationExecModes re-validates the cost model against both executor
// implementations and both storage engines. The vectorized batch
// executor maintains the same Counters as the reference row-at-a-time
// path, so the measured cost — counter deltas weighted with the model's
// constants — must come out identical in both modes on either storage;
// what vectorization shifts is the wall clock per unit of measured
// work. Storage is the second axis: the heap rows the fixture shreds
// into, and the persistent engine (the same image frozen through the
// colfile binary format, as a reopened snapshot serves it). Persistent
// scans charge encoded chunk bytes instead of the catalog's estimated
// row widths, so the est/meas ratio — the cost-model calibration —
// shifts between the storage rows; EXPERIMENTS.md records the shift.
func AblationExecModes(ctx context.Context) (*Table, error) {
	fx, err := newCostModelFixture()
	if err != nil {
		return nil, err
	}
	ix, err := fx.indexed()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:   "ablation-execmodes",
		Title:  fmt.Sprintf("Cost model vs executors x storages (all-inlined, %d shows)", fx.shows),
		Header: []string{"query", "storage", "estimated", "meas batch", "meas rows", "est/meas", "speedup"},
		Notes:  "meas batch and meas rows are counter deltas in cost units and must agree exactly per storage; est/meas shifts between heap and colfile because persistent scans charge encoded bytes; +idx storages carry the chosen secondary indexes; speedup is row-at-a-time wall clock over batch",
	}
	type storage struct {
		name string
		fx   *costModelFixture
	}
	var storages []storage
	for _, v := range []struct {
		fx     *costModelFixture
		suffix string
	}{{fx, ""}, {ix, "+idx"}} {
		frozen, err := v.fx.freeze()
		if err != nil {
			return nil, err
		}
		onFrozen := *v.fx
		onFrozen.db = frozen
		storages = append(storages, storage{"heap" + v.suffix, v.fx}, storage{"colfile" + v.suffix, &onFrozen})
	}
	for qi := range fx.queries {
		for _, st := range storages {
			q := st.fx.queries[qi]
			st.fx.db.Exec = engine.Options{}
			mb, eb, err := st.fx.measure(q)
			if err != nil {
				return nil, err
			}
			st.fx.db.Exec = engine.Options{RowAtATime: true}
			mr, er, err := st.fx.measure(q)
			if err != nil {
				return nil, err
			}
			st.fx.db.Exec = engine.Options{}
			if mb != mr {
				return nil, fmt.Errorf("ablation-execmodes: %s/%s: measured cost diverges between executors: batch=%v rows=%v",
					q.name, st.name, mb, mr)
			}
			ratio, speedup := 0.0, 0.0
			if mb > 0 {
				ratio = q.est / mb
			}
			if eb > 0 {
				speedup = float64(er) / float64(eb)
			}
			t.AddRow(q.name, st.name, f1(q.est), f1(mb), f1(mr), f2(ratio), f2(speedup))
		}
	}
	return t, nil
}
