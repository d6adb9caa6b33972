//go:build !race

package sweep

// raceEnabled reports whether the race detector is compiled in; the
// million-node streaming test skips under it (the instrumented build is an
// order of magnitude slower and the test's point — bounded driver memory —
// is detector-independent), and so does the per-cell allocation pin (race
// builds drop sync.Pool Puts at random, so its counts wobble).
const raceEnabled = false
