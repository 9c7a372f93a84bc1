//go:build !race

package xmltree_test

// raceEnabled reports whether the race detector is compiled in. See
// race_enabled_test.go.
const raceEnabled = false
