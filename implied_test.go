package legodb

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/xmltree"
	"legodb/internal/xschema"
)

// Invariant 26, tree integrity, and the plan rule that rests on it: a
// block's alias joined only from its key to a child's parent key is left
// out of the executed plan (engine.impliedAliases).

// executes returns the "executes:" lines of s.ExplainQuery(text).
func executes(t *testing.T, s *Store, text string) []string {
	t.Helper()
	out, err := s.ExplainQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	var plans []string
	for _, line := range strings.Split(out, "\n") {
		if _, plan, ok := strings.Cut(line, "--   executes: "); ok {
			plans = append(plans, plan)
		}
	}
	return plans
}

// TestRootRecurringPathNotElided: a type that is the document root and
// also recurs as a child has one parent edge, yet its root rows carry a
// NULL parent key, so a join into it from its parent is not implied by
// the tree. Dropping Sub's join to the inner Part would answer every
// Part, the root included.
func TestRootRecurringPathNotElided(t *testing.T) {
	eng, err := New(`
type Part = part[ name[String], Sub{0,*} ]
type Sub = sub[ Part ]`)
	if err != nil {
		t.Fatal(err)
	}
	const q = `FOR $p IN part/sub/part RETURN $p/name`
	if err := eng.AddQuery("q", q, 1); err != nil {
		t.Fatal(err)
	}
	advice, err := eng.EvaluateFixed("all-outlined")
	if err != nil {
		t.Fatal(err)
	}
	store, err := advice.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.LoadXML(strings.NewReader(`<part><name>root</name><sub><part><name>child</name></part></sub></part>`)); err != nil {
		t.Fatal(err)
	}
	res, err := store.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != "[[child]]" {
		t.Fatalf("%s answered %s, want [[child]]", q, got)
	}
	// The outer Part (t1) is implied: Sub has one parent edge and is not
	// the root. Sub (t2) is not: its child Part is the root's table.
	const plan = "scan t2 -> hash t3 -> hash t4 (t1 implied by parent keys)"
	if plans := executes(t, store, q); len(plans) != 1 || plans[0] != plan {
		t.Fatalf("%s executes %q, want %q: Sub's join to the inner Part must stay", q, plans, plan)
	}
}

// parentKeysTotal is invariant 26 on one store: every live row of a
// table with one parent edge, other than the root type's table, carries
// a non-NULL parent key naming exactly one live parent row. It returns
// the number of rows checked.
func parentKeysTotal(t *testing.T, label string, s *Store) int {
	t.Helper()
	cat := s.catalog
	if cat.RootTable == "" {
		t.Fatalf("%s: the catalog records no root table", label)
	}
	checked := 0
	for _, name := range cat.Order {
		tb := s.db.Table(name)
		if len(tb.Def.Parents) != 1 || name == cat.RootTable {
			continue
		}
		e := tb.Def.Parents[0]
		fk, parent := tb.ColumnIndex(e.FKColumn), s.db.Table(e.Parent)
		for pos := 0; pos < tb.NumRows(); pos++ {
			if !tb.Alive(pos) {
				continue
			}
			checked++
			v := tb.Cell(pos, fk)
			if v.IsNull() {
				t.Errorf("%s: %s row %d has a NULL %s", label, name, pos, e.FKColumn)
				continue
			}
			if live, _ := parent.Lookup(parent.Def.Key(), v); len(live) != 1 {
				t.Errorf("%s: %s row %d: %s = %v names %d live %s rows", label, name, pos, e.FKColumn, v, len(live), e.Parent)
			}
		}
	}
	return checked
}

// reopen saves s and opens the snapshot as a new store.
func reopen(t *testing.T, s *Store) *Store {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := OpenStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestParentKeysTotal checks invariant 26, tree integrity, after every
// way a store's rows change: a load, an insert, a cascading delete, a
// migration, and a save and reopen. It covers IMDB on the two fixed
// layouts and an advised one, and random schemas whose root type also
// recurs as a child, whose root rows are the only parentless ones.
func TestParentKeysTotal(t *testing.T) {
	eng, err := New(imdb.SchemaText)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetStatisticsText(imdb.StatsText); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddQuery("pub", `FOR $v IN imdb/show RETURN $v`, 1); err != nil {
		t.Fatal(err)
	}
	inlined, err := eng.EvaluateFixed("all-inlined")
	if err != nil {
		t.Fatal(err)
	}
	outlined, err := eng.EvaluateFixed("all-outlined")
	if err != nil {
		t.Fatal(err)
	}
	advised, err := eng.AdviseWorkload(t.Context(), imdb.LookupWorkload(), AdviseOptions{Strategy: GreedySI, MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	layouts := []struct {
		name     string
		from, to *Advice
	}{{"all-inlined", inlined, advised}, {"all-outlined", outlined, inlined}, {"advised", advised, outlined}}
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			s, err := l.from.Open()
			if err != nil {
				t.Fatal(err)
			}
			doc := imdb.Generate(imdb.GenOptions{Shows: 20, Seed: 26})
			for _, d := range []*xmltree.Node{doc, imdb.Generate(imdb.GenOptions{Shows: 10, Seed: 27})} {
				if err := s.Load(d); err != nil {
					t.Fatal(err)
				}
			}
			if parentKeysTotal(t, "load", s) == 0 {
				t.Fatal("no row has a parent key to check")
			}
			titles := doc.Path("show", "title")
			if n, err := s.InsertChild(`FOR $s IN imdb/show WHERE $s/title = c1 RETURN $s`, Params{"c1": titles[0].Text}, `<aka>Alias</aka>`); err != nil || n == 0 {
				t.Fatalf("InsertChild: n=%d err=%v", n, err)
			}
			parentKeysTotal(t, "insert", s)
			for _, del := range []struct {
				q string
				p Params
			}{
				{`FOR $s IN imdb/show WHERE $s/title = c1 RETURN $s`, Params{"c1": titles[1].Text}},
				{`FOR $a IN imdb/actor WHERE $a/name = c1 RETURN $a`, Params{"c1": doc.Path("actor", "name")[0].Text}},
			} {
				if n, err := s.DeleteWhere(del.q, del.p); err != nil || n == 0 {
					t.Fatalf("DeleteWhere %s: n=%d err=%v", del.q, n, err)
				}
			}
			parentKeysTotal(t, "delete", s)
			if _, err := s.MigrateTo(l.to, MigrateOptions{TablesPerGroup: 2}); err != nil {
				t.Fatal(err)
			}
			parentKeysTotal(t, "migrate", s)
			parentKeysTotal(t, "reopen", reopen(t, s))
		})
	}

	recurring := 0
	for seed := int64(0); seed < 2000; seed++ {
		s := xschema.RandomSchema(rand.New(rand.NewSource(seed)), 5)
		for k, mk := range []func(*xschema.Schema) (*xschema.Schema, error){pschema.InitialOutlined, pschema.AllInlined} {
			ps, err := mk(s)
			if err != nil {
				continue
			}
			cat, err := relational.Map(ps)
			if err != nil || cat.RootTable == "" || len(cat.Tables[cat.RootTable].Parents) == 0 {
				continue
			}
			root, _ := ps.Types[ps.Root].(*xschema.Element)
			if root == nil {
				continue
			}
			label := fmt.Sprintf("seed %d config %d", seed, k)
			store, err := openStore(ps, cat)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			gen := xschema.NewGenerator(s, rand.New(rand.NewSource(seed)))
			gen.MaxDepth = 4
			var docs []*xmltree.Node
			for i := 0; i < 8; i++ {
				if doc, err := gen.Generate(); err == nil && store.Load(doc) == nil {
					docs = append(docs, doc)
				}
			}
			if len(docs) == 0 || parentKeysTotal(t, label+" load", store) == 0 {
				continue
			}
			recurring++
			// Not every child fits under the root or is located by a
			// name path in every layout; whatever each call does, the
			// invariant must hold after it.
			for _, c := range docs[0].Children {
				store.InsertChild(`FOR $v IN `+root.Name+` RETURN $v`, nil, c.String())
			}
			parentKeysTotal(t, label+" insert", store)
			for _, c := range docs[0].Children {
				store.DeleteWhere(`FOR $v IN `+root.Name+`/`+c.Name+` RETURN $v`, nil)
			}
			parentKeysTotal(t, label+" delete", store)
			parentKeysTotal(t, label+" reopen", reopen(t, store))
		}
	}
	if recurring < 20 {
		t.Fatalf("only %d random schemas with a recurring root type loaded rows to check", recurring)
	}
	t.Logf("%d random schemas with a recurring root type checked", recurring)
}

// TestImpliedAncestorsDropped pins the plans the serve-analytic tenant
// (all-inlined, advised for year lookups) executes: the publishes Q15
// and Q16 scan one table per block, the year lookup no longer probes
// IMDB, and the value joins Q12 and Q13, whose IMDB alias joins two
// children, keep every alias.
func TestImpliedAncestorsDropped(t *testing.T) {
	eng, err := New(imdb.SchemaText)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetStatisticsText(imdb.StatsText); err != nil {
		t.Fatal(err)
	}
	const year = `FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title, $v/year`
	if err := eng.AddQuery("year", year, 1); err != nil {
		t.Fatal(err)
	}
	advice, err := eng.EvaluateFixed("all-inlined", AdviseOptions{Documents: 16})
	if err != nil {
		t.Fatal(err)
	}
	store, err := advice.Open()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"Q12": {
			"scan t1 -> hash t2 -> hash t4 [+name] -> hash t5 -> hash t3 [+title]",
			"scan t5 -> hash t3 -> inl t2 -> inl t4 -> inl t1",
		},
		"Q13": {
			"scan t1 -> hash t2 -> hash t4 -> hash t3 [+Actor_id] -> hash t5 [+name] -> hash t6 [+title]",
			"scan t6 -> hash t4 -> hash t2 -> inl t1 -> hash t3 [+Actor_id] -> hash t5 [+Director_id +name]",
			"scan t1 -> hash t2 -> hash t4 -> hash t3 [+Actor_id] -> hash t5 [+name] -> hash t6 [+title] -> hash t7",
			"scan t6 -> hash t4 -> hash t2 -> inl t1 -> hash t3 [+Actor_id] -> hash t5 [+Director_id +name] -> hash t7",
		},
		"Q15": {
			"scan t2 (t1 implied by parent keys)",
			"scan t3 (t1 t2 implied by parent keys)",
			"scan t4 (t1 t2 t3 implied by parent keys)",
		},
		"Q16": {
			"scan t2 (t1 implied by parent keys)",
			"scan t3 (t1 t2 implied by parent keys)",
			"scan t3 (t1 t2 implied by parent keys)",
			"scan t3 (t1 t2 implied by parent keys)",
		},
		"year": {"index(Show.year) t2 (t1 implied by parent keys)"},
	}
	for name, plans := range want {
		text := year
		if name != "year" {
			text = imdb.Query(name).String()
		}
		if got := executes(t, store, text); strings.Join(got, "\n") != strings.Join(plans, "\n") {
			t.Errorf("%s executes\n%s\nwant\n%s", name, strings.Join(got, "\n"), strings.Join(plans, "\n"))
		}
	}
}
