package dist_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// TestPooledStateReuseAcrossRuns drives the engine back-to-back over graphs
// of different n and k with machine pools shared across runs, at several
// worker counts, and asserts every run matches an inline run on fresh
// machines: no stale
// live/slab/arena/machine state may leak between runs. CI runs this under
// -race, which additionally checks the engine's internal sharing.
func TestPooledStateReuseAcrossRuns(t *testing.T) {
	const maxN = 96
	rng := rand.New(rand.NewSource(17))

	type instance struct {
		name   string
		g      *graph.Graph
		pooled runtime.Source
		fresh  runtime.Source
		maxR   int
	}

	greedyPool := dist.NewGreedyMachinePool(maxN)
	reducedPool := dist.NewReducedGreedyMachinePool(3, maxN)
	proposalPool := dist.NewProposalMachinePool(maxN)

	var instances []instance
	for _, p := range []struct{ n, k int }{{64, 5}, {96, 3}, {32, 8}} {
		g := graph.RandomMatchingUnion(p.n, p.k, 0.7, rng)
		instances = append(instances, instance{
			name:   fmt.Sprintf("greedy/n=%d,k=%d", p.n, p.k),
			g:      g,
			pooled: greedyPool,
			fresh:  dist.NewGreedyMachine,
			maxR:   runtime.DefaultMaxRounds(g),
		}, instance{
			name:   fmt.Sprintf("proposal/n=%d,k=%d", p.n, p.k),
			g:      g,
			pooled: proposalPool,
			fresh:  dist.NewProposalMachine,
			maxR:   runtime.DefaultMaxRounds(g),
		})
	}
	for _, p := range []struct{ n, k int }{{48, 64}, {96, 257}, {64, 17}} {
		g := graph.RandomBoundedDegree(p.n, p.k, 3, 6*p.n, rng)
		instances = append(instances, instance{
			name:   fmt.Sprintf("reduced/n=%d,k=%d", p.n, p.k),
			g:      g,
			pooled: reducedPool,
			fresh:  dist.NewReducedGreedyMachine(3),
			maxR:   dist.TotalRounds(p.k, 3) + 8,
		})
	}

	// Two passes over the whole battery: the second pass reuses pool and
	// engine state warmed (and possibly dirtied) by every earlier shape.
	for pass := 1; pass <= 2; pass++ {
		for _, inst := range instances {
			want, wantStats, err := runtime.Run(inst.g, nil, inst.fresh, inst.maxR, 1)
			if err != nil {
				t.Fatalf("pass %d %s: fresh: %v", pass, inst.name, err)
			}
			for _, workers := range []int{1, 3, 8} {
				got, gotStats, err := runtime.Run(inst.g, nil, inst.pooled, inst.maxR, workers)
				if err != nil {
					t.Fatalf("pass %d %s workers=%d: %v", pass, inst.name, workers, err)
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("pass %d %s workers=%d: node %d: %v, want %v",
							pass, inst.name, workers, v, got[v], want[v])
					}
				}
				if gotStats.Rounds != wantStats.Rounds || gotStats.Messages != wantStats.Messages {
					t.Fatalf("pass %d %s workers=%d: stats (%d rounds, %d msgs), want (%d, %d)",
						pass, inst.name, workers, gotStats.Rounds, gotStats.Messages,
						wantStats.Rounds, wantStats.Messages)
				}
				for v := range wantStats.HaltTimes {
					if gotStats.HaltTimes[v] != wantStats.HaltTimes[v] {
						t.Fatalf("pass %d %s workers=%d: halt time of node %d: %d, want %d",
							pass, inst.name, workers, v, gotStats.HaltTimes[v], wantStats.HaltTimes[v])
					}
				}
			}
		}
	}
}
