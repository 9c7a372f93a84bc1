package core

import (
	"context"
	"testing"

	"legodb/internal/imdb"
)

// TestSharingCountersReachReport: the search report must carry the
// block-sharing counters so cmd/experiments and the benchmarks can
// surface them, and sharing must engage on a default search.
func TestSharingCountersReachReport(t *testing.T) {
	res, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), Options{
		Strategy: GreedySO, Cache: NewCostCache(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksRequested == 0 {
		t.Fatal("no blocks routed through the plan layer on a default search")
	}
	if res.BlocksCosted == 0 || res.BlocksCosted >= res.BlocksRequested {
		t.Fatalf("implausible sharing counters: %d costed of %d requested", res.BlocksCosted, res.BlocksRequested)
	}
}
