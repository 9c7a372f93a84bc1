package optimizer

import (
	"strings"
	"testing"

	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/sqlast"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
)

const imdbFixture = `
type IMDB = imdb[ Show{0,*}<#34798> ]
type Show = show [ @type[ String<#8,#2> ],
    title[ String<#50,#34798> ],
    year[ Integer<#4,#1800,#2100,#300> ],
    Aka{1,10}<#3>,
    Review*<#2>,
    ( Movie | TV ) ]
type Aka = aka[ String<#40,#13641> ]
type Review = review[ ~[ String<#800,#11000> ] ]
type Movie = box_office[ Integer<#4,#10000,#100000000,#7000> ], video_sales[ Integer<#4,#10000,#100000000,#7000> ]
type TV = seasons[ Integer<#4,#1,#60,#50> ], description[ String<#120,#3500> ], Episode*<#9>
type Episode = episode[ name[ String<#40,#31250> ], guest_director[ String<#40,#5000> ] ]
`

type env struct {
	schema *xschema.Schema
	cat    *relational.Catalog
	opt    *Optimizer
}

func buildEnv(t *testing.T, src string) *env {
	t.Helper()
	s := xschema.MustParseSchema(src)
	cat, err := relational.Map(s)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	return &env{schema: s, cat: cat, opt: New(cat)}
}

func (e *env) cost(t *testing.T, query string) float64 {
	t.Helper()
	q := xquery.MustParse(query)
	sq, err := xquery.Translate(q, e.schema, e.cat)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	est, err := e.opt.QueryCost(sq)
	if err != nil {
		t.Fatalf("QueryCost: %v", err)
	}
	if est.Cost <= 0 {
		t.Fatalf("non-positive cost %g for %s", est.Cost, query)
	}
	return est.Cost
}

func TestSelectiveLookupCheaperThanPublish(t *testing.T) {
	e := buildEnv(t, imdbFixture)
	lookup := e.cost(t, `FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/title, $v/year`)
	publish := e.cost(t, `FOR $v IN imdb/show RETURN $v`)
	if lookup >= publish {
		t.Fatalf("lookup (%.1f) should cost less than publish-all (%.1f)", lookup, publish)
	}
	if publish < 10*lookup {
		t.Fatalf("publish (%.1f) should dominate lookup (%.1f) by a wide margin", publish, lookup)
	}
}

func TestMoreSelectiveFilterCostsLess(t *testing.T) {
	e := buildEnv(t, imdbFixture)
	// title has 34798 distinct values; year only 300. A title lookup
	// returns fewer rows, so downstream work is cheaper.
	byTitle := e.cost(t, `FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/title, $v/year, $v/aka`)
	byYear := e.cost(t, `FOR $v IN imdb/show WHERE $v/year = 1999 RETURN $v/title, $v/year, $v/aka`)
	if byTitle >= byYear {
		t.Fatalf("title lookup (%.1f) should be cheaper than year lookup (%.1f)", byTitle, byYear)
	}
}

func TestJoinUsesIndexNestedLoopThroughKey(t *testing.T) {
	// A selective filter on Episode makes the plan start there and probe
	// its parents through their (indexed) key columns.
	e := buildEnv(t, imdbFixture)
	q := xquery.MustParse(`FOR $v IN imdb/show, $e IN $v/episode WHERE $e/name = c1 RETURN $v/title`)
	sq, err := xquery.Translate(q, e.schema, e.cat)
	if err != nil {
		t.Fatal(err)
	}
	est, err := e.opt.QueryCost(sq)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(est.Plan, "inl") {
		t.Fatalf("selective child-to-parent join should use index nested-loop: %s", est.Plan)
	}
}

func TestPublishUsesHashJoins(t *testing.T) {
	e := buildEnv(t, imdbFixture)
	q := xquery.MustParse(`FOR $v IN imdb/show, $a IN $v/aka RETURN $v/title, $a`)
	sq, err := xquery.Translate(q, e.schema, e.cat)
	if err != nil {
		t.Fatal(err)
	}
	est, err := e.opt.QueryCost(sq)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(est.Plan, "hash") {
		t.Fatalf("unselective join should use hash join somewhere: %s", est.Plan)
	}
}

func TestWiderTablesCostMoreToScan(t *testing.T) {
	narrow := buildEnv(t, `
type R = r[ X*<#10000> ]
type X = x[ a[ String<#10,#100> ] ]`)
	wide := buildEnv(t, `
type R = r[ X*<#10000> ]
type X = x[ a[ String<#10,#100> ], b[ String<#500,#100> ] ]`)
	nc := narrow.cost(t, `FOR $x IN r/x WHERE $x/a = c1 RETURN $x/a`)
	wc := wide.cost(t, `FOR $x IN r/x WHERE $x/a = c1 RETURN $x/a`)
	if nc >= wc {
		t.Fatalf("narrow scan (%.1f) should cost less than wide scan (%.1f)", nc, wc)
	}
}

func TestWorkloadCostWeighting(t *testing.T) {
	e := buildEnv(t, imdbFixture)
	lookup := xquery.MustParse(`FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/title`)
	publish := xquery.MustParse(`FOR $v IN imdb/show RETURN $v`)
	lq, err := xquery.Translate(lookup, e.schema, e.cat)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := xquery.Translate(publish, e.schema, e.cat)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := e.opt.WorkloadCost([]*sqlast.Query{lq, pq}, []float64{0.9, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	light, err := e.opt.WorkloadCost([]*sqlast.Query{lq, pq}, []float64{0.1, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if heavy >= light {
		t.Fatalf("lookup-heavy workload (%.1f) should cost less than publish-heavy (%.1f)", heavy, light)
	}
	if _, err := e.opt.WorkloadCost([]*sqlast.Query{lq}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched weights accepted")
	}
}

func TestRangeSelectivity(t *testing.T) {
	e := buildEnv(t, imdbFixture)
	// year in [1800, 2100]: "< 2099" passes almost everything, "< 1801"
	// almost nothing, so the cheaper query is the selective one.
	narrow := e.cost(t, `FOR $v IN imdb/show WHERE $v/year < 1801 RETURN $v/title, $v/aka`)
	broad := e.cost(t, `FOR $v IN imdb/show WHERE $v/year < 2099 RETURN $v/title, $v/aka`)
	if narrow >= broad {
		t.Fatalf("selective range (%.1f) should cost less than broad range (%.1f)", narrow, broad)
	}
}

func TestAllInlinedPublishVsOutlinedPublish(t *testing.T) {
	// The central trade-off of Figure 10: fully outlined configurations
	// pay many joins on publishing; the all-inlined configuration pays
	// wide scans but far fewer joins. For the publish-everything query
	// the outlined configuration must cost more.
	s := xschema.MustParseSchema(imdbFixture)
	outlined, err := pschema.InitialOutlined(s)
	if err != nil {
		t.Fatal(err)
	}
	inlined, err := pschema.AllInlined(s)
	if err != nil {
		t.Fatal(err)
	}
	costOn := func(ps *xschema.Schema) float64 {
		cat, err := relational.Map(ps)
		if err != nil {
			t.Fatal(err)
		}
		opt := New(cat)
		q := xquery.MustParse(`FOR $v IN imdb/show RETURN $v`)
		sq, err := xquery.Translate(q, ps, cat)
		if err != nil {
			t.Fatal(err)
		}
		est, err := opt.QueryCost(sq)
		if err != nil {
			t.Fatal(err)
		}
		return est.Cost
	}
	oc, ic := costOn(outlined), costOn(inlined)
	if oc <= ic {
		t.Fatalf("outlined publish (%.1f) should cost more than inlined publish (%.1f)", oc, ic)
	}
}

func TestBlockCostErrors(t *testing.T) {
	e := buildEnv(t, imdbFixture)
	if _, err := e.opt.BlockCost(&sqlast.Block{}); err == nil {
		t.Error("empty block accepted")
	}
	bad := &sqlast.Block{}
	bad.AddTable("NoSuch", "t1")
	if _, err := e.opt.BlockCost(bad); err == nil {
		t.Error("unknown table accepted")
	}
	dup := &sqlast.Block{}
	dup.AddTable(e.cat.Order[0], "t1")
	dup.AddTable(e.cat.Order[0], "t1")
	if _, err := e.opt.BlockCost(dup); err == nil {
		t.Error("duplicate alias accepted")
	}
}

func TestExplainOutput(t *testing.T) {
	e := buildEnv(t, imdbFixture)
	q := xquery.MustParse(`FOR $v IN imdb/show WHERE $v/year = 1999 RETURN $v/title`)
	sq, err := xquery.Translate(q, e.schema, e.cat)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.opt.Explain(sq)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "block 1") || !strings.Contains(out, "total:") {
		t.Fatalf("Explain = %q", out)
	}
}

func TestDeterministicEstimates(t *testing.T) {
	e := buildEnv(t, imdbFixture)
	q := `FOR $v IN imdb/show WHERE $v/year = 1999 RETURN $v/title, $v/aka, $v/review/nyt`
	c1 := e.cost(t, q)
	c2 := e.cost(t, q)
	if c1 != c2 {
		t.Fatalf("estimates differ across runs: %g vs %g", c1, c2)
	}
}

// TestQueryCostComposesFromBlockCosts: QueryCost over a union query must
// equal, bit for bit, the sum of BlockCostShared over its blocks with
// the scan-state map threaded across them — the contract the plan
// layer's per-block memoization is built on.
func TestQueryCostComposesFromBlockCosts(t *testing.T) {
	e := buildEnv(t, imdbFixture)
	for _, query := range []string{
		`FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/title`,
		`FOR $v IN imdb/show, $x IN $v/episode WHERE $x/name = c1 RETURN $v/title`,
		`FOR $v IN imdb/show RETURN $v`,
		`FOR $v IN imdb/show WHERE $v/year = 1999 RETURN $v/title, $v/aka, $v/review/nyt`,
	} {
		sq, err := xquery.Translate(xquery.MustParse(query), e.schema, e.cat)
		if err != nil {
			t.Fatalf("Translate %s: %v", query, err)
		}
		want, err := e.opt.QueryCost(sq)
		if err != nil {
			t.Fatalf("QueryCost %s: %v", query, err)
		}
		scanned := make(map[string]bool)
		var sum float64
		for _, b := range sq.Blocks {
			est, err := e.opt.BlockCostShared(b, scanned)
			if err != nil {
				t.Fatalf("BlockCostShared %s: %v", query, err)
			}
			sum += est.Cost
		}
		if sum != want.Cost {
			t.Errorf("%s: composed block costs %x, QueryCost %x", query, sum, want.Cost)
		}
	}
}

// TestBlockCostAliasInvariant: renaming every alias consistently must
// not move the cost — the property that licenses keying the block memo
// on the alias-invariant shape.
func TestBlockCostAliasInvariant(t *testing.T) {
	e := buildEnv(t, imdbFixture)
	sq, err := xquery.Translate(
		xquery.MustParse(`FOR $v IN imdb/show, $x IN $v/episode WHERE $x/name = c1 RETURN $v/title`),
		e.schema, e.cat)
	if err != nil {
		t.Fatal(err)
	}
	b := sq.Blocks[0]
	base, err := e.opt.BlockCostShared(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	ren := b.Clone()
	names := map[string]string{}
	for i := range ren.Tables {
		names[ren.Tables[i].Alias] = "zz_" + ren.Tables[i].Alias
		ren.Tables[i].Alias = "zz_" + ren.Tables[i].Alias
	}
	fix := func(c *sqlast.ColumnRef) {
		if n, ok := names[c.Alias]; ok {
			c.Alias = n
		}
	}
	for i := range ren.Joins {
		fix(&ren.Joins[i].Left)
		fix(&ren.Joins[i].Right)
	}
	for i := range ren.Filters {
		fix(&ren.Filters[i].Col)
		if ren.Filters[i].RightCol != nil {
			fix(ren.Filters[i].RightCol)
		}
	}
	for i := range ren.Projects {
		fix(&ren.Projects[i])
	}
	got, err := e.opt.BlockCostShared(ren, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != base.Cost {
		t.Fatalf("alias renaming moved the block cost: %x vs %x", got.Cost, base.Cost)
	}
	if b.ShapeKey() != ren.ShapeKey() {
		t.Fatal("renamed block changed shape; the invariant test is vacuous")
	}
}
