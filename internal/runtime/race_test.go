//go:build race

package runtime_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
