package runtime_test

import (
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// skipUnderRace skips an allocation pin in race builds, where sync.Pool
// drops Puts at random and the pooled engine scratch is re-allocated by
// chance, so the counts are not deterministic.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race: race builds drop sync.Pool Puts at random")
	}
}

// TestWorkersRoundLoopAllocFree pins the bitset round loop as allocation-
// free: after the pooled state is warm, per-run allocations must not scale
// with the number of rounds. Two greedy runs at the same n but different
// round counts should cost the same fixed setup allocations (goroutines,
// outputs, Stats) — any per-round allocation would show up as a slope.
func TestWorkersRoundLoopAllocFree(t *testing.T) {
	skipUnderRace(t)
	rng := rand.New(rand.NewSource(9))
	short := graph.RandomMatchingUnion(256, 2, 0.7, rng)
	long := graph.RandomMatchingUnion(256, 8, 0.7, rng)
	src := dist.NewGreedyMachinePool(256)

	run := func(g *graph.Graph) (rounds int) {
		_, stats, err := runtime.Run(g, nil, src, 128, 2)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Rounds
	}
	// Warm the pool so both measurements see identical reuse.
	rShort := run(short)
	rLong := run(long)
	if rLong <= rShort {
		t.Fatalf("test graphs degenerate: %d rounds vs %d, need a spread", rLong, rShort)
	}

	aShort := testing.AllocsPerRun(10, func() { run(short) })
	aLong := testing.AllocsPerRun(10, func() { run(long) })
	// Setup allocations are identical at fixed n and workers; allow one
	// stray alloc of slack for runtime noise (goroutine stack growth etc).
	if aLong > aShort+1 {
		t.Errorf("allocations scale with rounds: %.1f at %d rounds vs %.1f at %d rounds",
			aLong, rLong, aShort, rShort)
	}
}

// TestInlineRunAllocs pins the inline path's per-run allocations on a warm
// pool: the outputs, the Stats with its halt times and histogram, and
// nothing per round or per node.
func TestInlineRunAllocs(t *testing.T) {
	skipUnderRace(t)
	const n = 4096
	g := graph.RandomMatchingUnion(n, 6, 0.7, rand.New(rand.NewSource(10)))
	src := dist.NewGreedyMachinePool(n)
	run := func() {
		if _, _, err := runtime.Run(g, nil, src, 64, 1); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(10, run)
	t.Logf("inline run: %.0f allocs", allocs)
	if allocs > 4 {
		t.Errorf("inline run allocated %.1f times, want at most 4", allocs)
	}
}
