package optimizer

import (
	"testing"

	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/xquery"
)

// TestAllocsBlockCost pins the allocations of costing the blocks of Q12
// and Q13 on all-outlined through BlockCostShared, the unit the plan
// layer calls on every memo miss: the greedy join indexes each block's
// edges once and reuses its working memory across steps and starts.
// Skipped under the race detector, whose instrumentation allocates; CI
// runs it in the plain-build allocation step.
func TestAllocsBlockCost(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold without the race detector")
	}
	e := imdbEnv(t, pschema.InitialOutlined)
	budgets := map[string]float64{"Q12": 30, "Q13": 56}
	for _, name := range []string{"Q12", "Q13"} {
		sq, err := xquery.Translate(imdb.Query(name), e.schema, e.cat)
		if err != nil {
			t.Fatal(err)
		}
		scanned := make(map[string]bool)
		blocks := sq.Blocks
		got := testing.AllocsPerRun(100, func() {
			clear(scanned)
			for _, b := range blocks {
				if _, err := e.opt.BlockCostShared(b, scanned); err != nil {
					t.Fatal(err)
				}
			}
		})
		if got > budgets[name] {
			t.Errorf("%s: %.0f allocs per costing of its %d blocks, budget %.0f", name, got, len(blocks), budgets[name])
		}
	}
}
