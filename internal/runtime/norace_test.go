//go:build !race

package runtime_test

// raceEnabled reports whether the race detector is compiled in; the
// allocation pins skip under it, because race builds drop sync.Pool Puts at
// random and the engine's pooled scratch then re-allocates by chance.
const raceEnabled = false
