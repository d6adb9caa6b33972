package runtime_test

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/runtime"
)

// targetEcho returns a Source constructor handing out echoMachines whose
// halt round is a function of the node ID (factories are called in node
// order, which this relies on — the same contract stateful sources use).
func targetEcho(target func(v int) int) func() runtime.Source {
	return func() runtime.Source {
		v := 0
		return runtime.Factory(func() runtime.Machine {
			m := &echoMachine{target: target(v), selfName: fmt.Sprintf("m%d", v)}
			v++
			return m
		})
	}
}

// checkFrontierRun pins Run at every engineWorkers count against the
// reference interpreter and returns the reference statistics.
func checkFrontierRun(t *testing.T, name string, g *graph.Graph, target func(v int) int, maxRounds int) *runtime.Stats {
	t.Helper()
	return agree(t, name, g, nil, targetEcho(target), maxRounds)
}

// TestFrontierOddNodeCount: n not a multiple of 64, so the last frontier
// word is partial; halt rounds vary per node to churn the bitset.
func TestFrontierOddNodeCount(t *testing.T) {
	const n = 67 // one full word + a 3-bit tail
	colors := make([]group.Color, n-1)
	for i := range colors {
		colors[i] = group.Color(1 + i%2)
	}
	g, err := graph.PathGraph(4, colors)
	if err != nil {
		t.Fatal(err)
	}
	stats := checkFrontierRun(t, "odd-n", g, func(v int) int { return 1 + v%5 }, 32)
	if stats.Rounds != 5 {
		t.Fatalf("rounds = %d, want 5 (max target)", stats.Rounds)
	}
}

// TestFrontierAllHaltInRoundOne: every node halts after round 1, so round
// 2's frontier is empty in the very first AND-NOT pass.
func TestFrontierAllHaltInRoundOne(t *testing.T) {
	colors := make([]group.Color, 99) // n = 100
	for i := range colors {
		colors[i] = group.Color(1 + i%2)
	}
	g, err := graph.PathGraph(4, colors)
	if err != nil {
		t.Fatal(err)
	}
	stats := checkFrontierRun(t, "all-halt-r1", g, func(int) int { return 1 }, 8)
	if stats.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", stats.Rounds)
	}
	// A path of 99 edges delivers two messages per edge in its one round.
	if stats.Messages != 2*99 {
		t.Fatalf("messages = %d, want %d", stats.Messages, 2*99)
	}
}

// TestFrontierSingleLiveNodeInLastWord: only the highest node ID stays live
// past init, parked in the last (partial) word — the engine must keep
// scanning that word alone until it halts.
func TestFrontierSingleLiveNodeInLastWord(t *testing.T) {
	const n = 130        // words 0,1 full; node 129 is bit 1 of word 2
	g := graph.New(n, 8) // no edges: everything rides on the frontier alone
	stats := checkFrontierRun(t, "last-word", g, func(v int) int {
		if v == n-1 {
			return 3
		}
		return 0 // halted at init, never enters the frontier
	}, 8)
	if stats.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", stats.Rounds)
	}
	if stats.Messages != 0 {
		t.Fatalf("messages = %d, want 0 (no edges)", stats.Messages)
	}
	for v, h := range stats.HaltTimes {
		want := 0
		if v == n-1 {
			want = 3
		}
		if h != want {
			t.Fatalf("halt time of node %d = %d, want %d", v, h, want)
		}
	}
}

// TestWorkersPoolNoLivenessLeak is the behavioural half of
// TestWorkersStateFitZeroesFrontier: back-to-back pooled runs on different
// graphs, where the second run's init-halted nodes sit exactly where the
// first run's live bits were. A leaked bit would make
// a halted machine execute rounds and corrupt halt times.
func TestWorkersPoolNoLivenessLeak(t *testing.T) {
	big := graph.New(256, 8)
	small := graph.New(100, 8)
	for rep := 0; rep < 3; rep++ {
		if _, _, err := runtime.Run(big, nil, targetEcho(func(int) int { return 3 })(), 10, 3); err != nil {
			t.Fatal(err)
		}
		_, stats, err := runtime.Run(small, nil, targetEcho(func(v int) int {
			if v == 5 {
				return 2
			}
			return 0
		})(), 10, 3)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds != 2 || stats.Messages != 0 {
			t.Fatalf("rep %d: rounds/messages = %d/%d, want 2/0", rep, stats.Rounds, stats.Messages)
		}
		for v, h := range stats.HaltTimes {
			want := 0
			if v == 5 {
				want = 2
			}
			if h != want {
				t.Fatalf("rep %d: node %d halt time %d, want %d — liveness leaked across pooled runs", rep, v, h, want)
			}
		}
	}
}
