package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func run(t *testing.T, name string) *Table {
	t.Helper()
	tbl, err := Run(name)
	if err != nil {
		t.Fatalf("Run(%s): %v", name, err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s produced no rows", name)
	}
	t.Logf("\n%s", tbl)
	return tbl
}

func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tbl.Rows[row][col], "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, tbl.Rows[row][col])
	}
	return v
}

// TestFig6Shape checks the qualitative claims of Figure 6: map 3 wins on
// the lookup-style queries Q3/Q4 and on workload W2; no configuration is
// dominated for every query.
func TestFig6Shape(t *testing.T) {
	tbl := run(t, "fig6")
	rows := map[string]int{}
	for i, r := range tbl.Rows {
		rows[r[0]] = i
	}
	// Q3 (description lookup): map3 must be dramatically cheaper.
	if v := cell(t, tbl, rows["Q3"], 3); v > 0.6 {
		t.Errorf("fig6 Q3 map3 = %.2f, want well below 1 (paper: 0.17)", v)
	}
	// Q4 (episodes by guest director): map3 cheaper (paper: 0.40; our
	// optimizer's probe-up plans narrow the baseline's disadvantage).
	if v := cell(t, tbl, rows["Q4"], 3); v >= 1 {
		t.Errorf("fig6 Q4 map3 = %.2f, want below 1 (paper: 0.40)", v)
	}
	// W2 (lookup-heavy): map3 wins.
	if v := cell(t, tbl, rows["W2"], 3); v >= 1 {
		t.Errorf("fig6 W2 map3 = %.2f, want < 1 (paper: 0.40)", v)
	}
	// Q1 (nyt reviews): map2 must beat map1.
	if v := cell(t, tbl, rows["Q1"], 2); v >= 1 {
		t.Errorf("fig6 Q1 map2 = %.2f, want < 1 (paper: 0.83)", v)
	}
}

// TestFig10Shape: greedy-so starts far above greedy-si on both workloads
// and both strategies descend monotonically.
func TestFig10Shape(t *testing.T) {
	tbl := run(t, "fig10")
	first := tbl.Rows[0]
	soLookup := mustFloat(t, first[1])
	siLookup := mustFloat(t, first[2])
	soPublish := mustFloat(t, first[3])
	siPublish := mustFloat(t, first[4])
	if soLookup <= siLookup {
		t.Errorf("greedy-so initial lookup cost %.1f should exceed greedy-si %.1f", soLookup, siLookup)
	}
	if soPublish <= siPublish {
		t.Errorf("greedy-so initial publish cost %.1f should exceed greedy-si %.1f", soPublish, siPublish)
	}
	for col := 1; col <= 4; col++ {
		prev := mustFloat(t, tbl.Rows[0][col])
		for r := 1; r < len(tbl.Rows); r++ {
			cur := mustFloat(t, tbl.Rows[r][col])
			if cur > prev+1e-9 {
				t.Errorf("fig10 column %d not monotone at row %d: %.1f -> %.1f", col, r, prev, cur)
			}
			prev = cur
		}
	}
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("not numeric: %q", s)
	}
	return v
}

// TestFig13Shape: the union-transformed configuration is cheaper for the
// Figure 12 queries. Q13 is exempt: its six-way join is duplicated per
// partition by this repository's translator, where the paper's
// multi-query optimizer factors the union (deviation recorded in
// EXPERIMENTS.md).
func TestFig13Shape(t *testing.T) {
	tbl := run(t, "fig13")
	for i, row := range tbl.Rows {
		if row[0] == "Q13" {
			continue
		}
		pct := cell(t, tbl, i, 3)
		if pct >= 100 {
			t.Errorf("fig13 %s: union-transformed at %.1f%% of all-inlined, want < 100%%", row[0], pct)
		}
	}
}

// TestFig14Shape: split wins everywhere; the publish-side gap narrows as
// akas grow.
func TestFig14Shape(t *testing.T) {
	tbl := run(t, "fig14")
	for i := range tbl.Rows {
		li, ls := cell(t, tbl, i, 1), cell(t, tbl, i, 2)
		pi, ps := cell(t, tbl, i, 3), cell(t, tbl, i, 4)
		if ls > li {
			t.Errorf("fig14 row %d: split lookup %.1f > inlined %.1f", i, ls, li)
		}
		if ps > pi {
			t.Errorf("fig14 row %d: split publish %.1f > inlined %.1f", i, ps, pi)
		}
	}
	firstGap := cell(t, tbl, 0, 3) / cell(t, tbl, 0, 4)
	lastGap := cell(t, tbl, len(tbl.Rows)-1, 3) / cell(t, tbl, len(tbl.Rows)-1, 4)
	if lastGap > firstGap {
		t.Errorf("fig14: publish gap should narrow as akas grow (%.2fx -> %.2fx)", firstGap, lastGap)
	}
}

// TestTable2Shape: inlined cost constant in NYT%, wild cost decreasing;
// wild wins clearly at 100k reviews.
func TestTable2Shape(t *testing.T) {
	tbl := run(t, "tab2")
	// Rows 0-2: 10k reviews; rows 3-5: 100k.
	for _, base := range []int{0, 3} {
		i0 := cell(t, tbl, base, 2)
		for r := base + 1; r < base+3; r++ {
			if v := cell(t, tbl, r, 2); v < i0*0.95 || v > i0*1.05 {
				t.Errorf("tab2 inlined cost should be constant in NYT%%: %.1f vs %.1f", i0, v)
			}
		}
		w0, w1, w2 := cell(t, tbl, base, 3), cell(t, tbl, base+1, 3), cell(t, tbl, base+2, 3)
		if !(w0 > w1 && w1 > w2) {
			t.Errorf("tab2 wild cost should fall with NYT%%: %.1f, %.1f, %.1f", w0, w1, w2)
		}
	}
	// At 100k reviews and 12.5%, wild wins by a wide margin.
	if inl, wild := cell(t, tbl, 5, 2), cell(t, tbl, 5, 3); wild >= inl {
		t.Errorf("tab2 100k/12.5%%: wild %.1f should beat inlined %.1f", wild, inl)
	}
}

func TestAblationThreshold(t *testing.T) {
	tbl := run(t, "ablation-threshold")
	// Larger thresholds never take more iterations.
	for base := 0; base < len(tbl.Rows); base += 4 {
		prev := cell(t, tbl, base, 2)
		for r := base + 1; r < base+4; r++ {
			cur := cell(t, tbl, r, 2)
			if cur > prev {
				t.Errorf("threshold increased iterations at row %d", r)
			}
			prev = cur
		}
	}
}

func TestAblationSIvsSO(t *testing.T) {
	tbl := run(t, "ablation-si-vs-so")
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestAblationCostModel(t *testing.T) {
	tbl := run(t, "ablation-costmodel")
	// Estimates and measurements agree within an order of magnitude, and
	// the most expensive query by estimate is also the most expensive by
	// measurement.
	maxEstRow, maxMeasRow := 0, 0
	for i := range tbl.Rows {
		ratio := cell(t, tbl, i, 3)
		if ratio < 0.05 || ratio > 20 {
			t.Errorf("cost model off by more than 20x on %s: ratio %.2f", tbl.Rows[i][0], ratio)
		}
		if cell(t, tbl, i, 1) > cell(t, tbl, maxEstRow, 1) {
			maxEstRow = i
		}
		if cell(t, tbl, i, 2) > cell(t, tbl, maxMeasRow, 2) {
			maxMeasRow = i
		}
	}
	if maxEstRow != maxMeasRow {
		t.Errorf("estimate and measurement disagree on the most expensive query: %s vs %s",
			tbl.Rows[maxEstRow][0], tbl.Rows[maxMeasRow][0])
	}
}

func TestAblationExecModes(t *testing.T) {
	tbl := run(t, "ablation-execmodes")
	// 4 queries x 2 storages (heap rows, colfile-frozen persistent
	// image) x 2 designs (key-only, chosen secondary indexes).
	if len(tbl.Rows) != 16 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	storages := map[string]int{}
	for i := range tbl.Rows {
		label := tbl.Rows[i][0] + "/" + tbl.Rows[i][1]
		storages[tbl.Rows[i][1]]++
		// The batch executor maintains the reference path's counters, so
		// the measured costs must match and the model's calibration (the
		// est/meas ratio) is unchanged by vectorization.
		if batch, rows := tbl.Rows[i][3], tbl.Rows[i][4]; batch != rows {
			t.Errorf("%s: measured cost diverges: batch=%s rows=%s", label, batch, rows)
		}
		if ratio := cell(t, tbl, i, 5); ratio < 0.05 || ratio > 20 {
			t.Errorf("cost model off by more than 20x on %s: ratio %.2f", label, ratio)
		}
	}
	for _, name := range []string{"heap", "colfile", "heap+idx", "colfile+idx"} {
		if storages[name] != 4 {
			t.Errorf("storage rows = %v, want 4 of %s", storages, name)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestNamesComplete(t *testing.T) {
	names := Names()
	if len(names) != 12 {
		t.Fatalf("names = %v", names)
	}
}

func TestAblationBeam(t *testing.T) {
	tbl := run(t, "ablation-beam")
	// Beam never ends worse than greedy, and evaluates at least as many
	// configurations.
	for i, row := range tbl.Rows {
		if row[1] == "greedy" {
			continue
		}
		if ratio := cell(t, tbl, i, 3); ratio > 1.0001 {
			t.Errorf("%s %s worse than greedy: ratio %.3f", row[0], row[1], ratio)
		}
	}
}

func TestAblationUpdates(t *testing.T) {
	tbl := run(t, "ablation-updates")
	// Relations kept must be non-increasing as the insert rate grows.
	prev := cell(t, tbl, 0, 2)
	for i := 1; i < len(tbl.Rows); i++ {
		cur := cell(t, tbl, i, 2)
		if cur > prev {
			t.Errorf("row %d: relations grew with insert rate (%.0f -> %.0f)", i, prev, cur)
		}
		prev = cur
	}
}

func TestTableFormats(t *testing.T) {
	tbl := &Table{
		Name:   "x",
		Title:  "demo",
		Header: []string{"a", "b"},
		Notes:  "n",
	}
	tbl.AddRow("1", "has,comma")
	csv := tbl.CSV()
	if !strings.Contains(csv, "\"has,comma\"") {
		t.Fatalf("CSV quoting broken: %q", csv)
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "*n*") {
		t.Fatalf("Markdown = %q", md)
	}
}
