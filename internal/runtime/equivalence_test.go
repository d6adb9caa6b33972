package runtime_test

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/runtime"
)

// engineWorkers are the worker counts every equivalence pin runs Run at:
// the inline path, and parallel paths with fewer, equal and more workers
// than the host has cores.
var engineWorkers = []int{1, 2, 3, 7}

// agree runs the reference interpreter and then Run at every engineWorkers
// count, demanding identical outputs, rounds, messages, halt times and
// per-round histograms, and returns the reference statistics. newSrc is
// called for a fresh source per run; sources must hand out machines that
// behave the same on every run.
func agree(t *testing.T, name string, g *graph.Graph, labels []int, newSrc func() runtime.Source, maxRounds int) *runtime.Stats {
	t.Helper()
	refOuts, refStats, err := runtime.RunReference(g, labels, newSrc(), maxRounds)
	if err != nil {
		t.Fatalf("%s/reference: %v", name, err)
	}
	for _, workers := range engineWorkers {
		outs, stats, err := runtime.Run(g, labels, newSrc(), maxRounds, workers)
		if err != nil {
			t.Fatalf("%s/workers=%d: %v", name, workers, err)
		}
		name := name + "/workers=" + strconv.Itoa(workers)
		if len(outs) != len(refOuts) {
			t.Fatalf("%s: %d outputs, reference %d", name, len(outs), len(refOuts))
		}
		for v := range outs {
			if outs[v] != refOuts[v] {
				t.Fatalf("%s node %d: output %v, reference %v", name, v, outs[v], refOuts[v])
			}
		}
		if stats.Rounds != refStats.Rounds || stats.Messages != refStats.Messages {
			t.Fatalf("%s: rounds/messages %d/%d, reference %d/%d", name,
				stats.Rounds, stats.Messages, refStats.Rounds, refStats.Messages)
		}
		for v := range stats.HaltTimes {
			if stats.HaltTimes[v] != refStats.HaltTimes[v] {
				t.Fatalf("%s: halt time of %d differs (%d vs %d)", name, v,
					stats.HaltTimes[v], refStats.HaltTimes[v])
			}
		}
		if len(stats.PerRound) != len(refStats.PerRound) {
			t.Fatalf("%s: %d per-round entries, reference %d", name,
				len(stats.PerRound), len(refStats.PerRound))
		}
		total := 0
		for r := range stats.PerRound {
			if stats.PerRound[r] != refStats.PerRound[r] {
				t.Fatalf("%s round %d: traffic %+v, reference %+v", name, r+1,
					stats.PerRound[r], refStats.PerRound[r])
			}
			total += stats.PerRound[r].Messages
		}
		if total != stats.Messages {
			t.Fatalf("%s: per-round messages sum to %d, Messages = %d", name, total, stats.Messages)
		}
	}
	return refStats
}

// checkAgree is agree for a source reused across runs.
func checkAgree(t *testing.T, name string, g *graph.Graph, labels []int, src runtime.Source, maxRounds int) {
	t.Helper()
	agree(t, name, g, labels, func() runtime.Source { return src }, maxRounds)
}

// TestEnginesAgreeOnGreedy is the equivalence gate of the engine on the
// greedy machine: the reference interpreter and Run at every worker count
// must produce identical outputs and statistics over regular, worst-case
// and path instances.
func TestEnginesAgreeOnGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g, err := graph.RandomRegular(128, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkAgree(t, "random-regular", g, nil, dist.NewGreedyMachine, 64)

	for k := 2; k <= 8; k++ {
		wc, err := graph.NewWorstCase(k)
		if err != nil {
			t.Fatal(err)
		}
		checkAgree(t, "worst-case", wc.G, nil, dist.NewGreedyMachine, 64)
	}

	p, err := graph.PathGraph(6, []group.Color{6, 5, 4, 3, 2, 1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	checkAgree(t, "path", p, nil, dist.NewGreedyMachine, 64)

	mu := graph.RandomMatchingUnion(300, 8, 0.7, rng)
	checkAgree(t, "matching-union", mu, nil, dist.NewGreedyMachinePool(300), 64)

	checkAgree(t, "empty", graph.New(0, 3), nil, dist.NewGreedyMachine, 64)
}

// TestEnginesAgreeOnAllMachines extends the gate to every dist machine,
// including the labelled bipartite one and the multi-phase reduced machine.
func TestEnginesAgreeOnAllMachines(t *testing.T) {
	rng := rand.New(rand.NewSource(22))

	g := graph.RandomMatchingUnion(60, 5, 0.8, rng)
	checkAgree(t, "proposal", g, nil, dist.NewProposalMachine, runtime.DefaultMaxRounds(g))

	b := graph.RandomBoundedDegree(80, 256, 3, 400, rng)
	checkAgree(t, "reduced", b, nil, dist.NewReducedGreedyMachine(3),
		dist.TotalRounds(256, 3)+8)

	half := 30
	bip := graph.New(2*half, 64)
	labels := make([]int, 2*half)
	for i := half; i < 2*half; i++ {
		labels[i] = dist.SideBlack
	}
	for i := 0; i < 4*half; i++ {
		_ = bip.AddEdge(rng.Intn(half), half+rng.Intn(half), group.Color(1+rng.Intn(64)))
	}
	checkAgree(t, "bipartite", bip, labels, dist.NewBipartiteMachine, 4*bip.MaxDegree()+16)
}

// TestWorkersValidMatchingAtScale exercises the parallel path on a larger
// instance and validates the matching it produces.
func TestWorkersValidMatchingAtScale(t *testing.T) {
	n := 1 << 14
	if testing.Short() {
		n = 1 << 11
	}
	rng := rand.New(rand.NewSource(23))
	// A union of partial matchings, not a regular graph: in a k-regular
	// properly coloured instance every node has a colour-1 edge and greedy
	// halts at time 0, which would leave the round loop untested.
	g := graph.RandomMatchingUnion(n, 6, 0.7, rng)
	outs, stats, err := runtime.Run(g, nil, dist.NewGreedyMachine, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckMatching(g, outs); err != nil {
		t.Fatal(err)
	}
	if stats.Rounds == 0 {
		t.Fatal("instance degenerated to a time-0 halt; the round loop was not exercised")
	}
	if stats.Rounds > g.K()-1 {
		t.Errorf("rounds %d exceed k−1 = %d", stats.Rounds, g.K()-1)
	}
}
