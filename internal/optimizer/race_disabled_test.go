//go:build !race

package optimizer

// raceEnabled reports whether the race detector is compiled in. See
// race_enabled_test.go.
const raceEnabled = false
