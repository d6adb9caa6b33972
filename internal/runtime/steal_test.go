package runtime_test

import (
	"math/rand"
	goruntime "runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// pinAgainstReference repeats the agree pin reps times, so a schedule-
// dependent divergence has several chances to show.
func pinAgainstReference(t *testing.T, name string, g *graph.Graph, src runtime.Source, maxRounds int, reps int) {
	t.Helper()
	for rep := 0; rep < reps; rep++ {
		checkAgree(t, name, g, nil, src, maxRounds)
	}
}

// TestWorkersStealInterleavings is the adversarial chunk-schedule pin:
// one-word chunks plus a scheduler yield between claims force workers to
// interleave claims in ways the production granularity never produces, and
// every rep must still match the reference interpreter byte for byte —
// outputs, halt times, and the per-round traffic histogram. This is the
// determinism argument of steal.go made executable.
func TestWorkersStealInterleavings(t *testing.T) {
	defer runtime.SetStealChunkWords(1)()
	defer runtime.SetStealYield(goruntime.Gosched)()

	rng := rand.New(rand.NewSource(31))
	reps := 8
	if testing.Short() {
		reps = 3
	}

	mu := graph.RandomMatchingUnion(300, 6, 0.7, rng)
	pinAgainstReference(t, "greedy", mu, dist.NewGreedyMachinePool(300), 64, reps)

	// The reduced machine exercises the arena: colour-list payloads are
	// packed by whichever worker claims the sender, so the pin also proves
	// payload contents are schedule-independent.
	bd := graph.RandomBoundedDegree(200, 128, 3, 1000, rng)
	pinAgainstReference(t, "reduced", bd, dist.NewReducedGreedyMachinePool(3, 200),
		dist.TotalRounds(128, 3)+8, reps)

	pr := graph.RandomMatchingUnion(140, 5, 0.8, rng)
	pinAgainstReference(t, "proposal", pr, dist.NewProposalMachine, runtime.DefaultMaxRounds(pr), reps)
}

// TestWorkersChunkGranularities pins the schedule-independence across claim
// granularities at the production yield (none): every chunk size from one
// word up to past-the-whole-frontier must give identical results.
func TestWorkersChunkGranularities(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := graph.RandomMatchingUnion(500, 6, 0.6, rng)
	src := dist.NewGreedyMachinePool(500)
	for _, chunk := range []int{1, 2, 7, 64} {
		restore := runtime.SetStealChunkWords(chunk)
		pinAgainstReference(t, "chunk", g, src, 64, 1)
		restore()
	}
}
