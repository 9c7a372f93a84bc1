//go:build race

package xmltree_test

// raceEnabled reports whether the race detector is compiled in. The
// allocation-budget tests skip under it: race instrumentation adds its
// own allocations, so AllocsPerRun budgets only hold on plain builds.
const raceEnabled = true
