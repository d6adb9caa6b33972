// Flatengine demonstrates the scale target of the flat execution engine:
// maximal matching on instances with hundreds of thousands to millions of
// nodes. The engine runs GOMAXPROCS workers over a bitset frontier, a
// dense per-directed-edge message slab and an allocation-free round loop,
// so n = 1<<20 at k = 6 is routine:
//
//	go run ./examples/flatengine -n 1048576
//
// With -algo reduced it drives the §1.3 colour-reduction pipeline instead:
// every reduction round sends a colour list per node, and the per-worker
// round arenas keep even that allocation-free:
//
//	go run ./examples/flatengine -algo reduced -n 262144 -k 1024 -delta 3
//
// With -scenario the instance comes from the internal/gen registry instead
// of the built-in constructors — any registered family at any size, built
// CSR-natively so even million-node setup is a small fraction of the run:
//
//	go run ./examples/flatengine -scenario matching-union:n=1048576,k=6
//	go run ./examples/flatengine -scenario caterpillar:k=64,legs=8
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	goruntime "runtime"
	"time"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// nodeRoundsPerSec formats throughput; a time-0 run has no round loop.
func nodeRoundsPerSec(n, rounds int, elapsed time.Duration) string {
	if rounds == 0 {
		return "halted at time 0"
	}
	return fmt.Sprintf("%.0f node-rounds/s", float64(n*rounds)/elapsed.Seconds())
}

func main() {
	n := flag.Int("n", 1<<18, "number of nodes (even)")
	k := flag.Int("k", 6, "palette size")
	algo := flag.String("algo", "greedy", "machine: greedy, or reduced (colour reduction first; wants k ≫ delta)")
	delta := flag.Int("delta", 3, "degree bound for -algo reduced")
	density := flag.Float64("density", 0.7, "per-colour matching density (greedy instance); 1.0 is k-regular, where greedy degenerately halts at time 0")
	scenario := flag.String("scenario", "", "build the instance from the gen registry (spec name[:param=value,…]) instead of -n/-k/-density")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	start := time.Now()
	var g *graph.Graph
	var labels []int
	if *scenario != "" {
		inst, _, err := gen.BuildSpec(*scenario, *seed)
		if err != nil {
			log.Fatal(err)
		}
		g, labels = inst.G, inst.Labels
	}
	var factory runtime.Source
	var maxRounds, bound int
	var boundName string
	switch *algo {
	case "greedy":
		if g == nil {
			g = graph.RandomMatchingUnion(*n, *k, *density, rng)
		}
		factory = dist.NewGreedyMachinePool(g.N())
		maxRounds = 4 * g.K()
		bound, boundName = g.K()-1, "k−1"
	case "reduced":
		if g == nil {
			g = graph.RandomBoundedDegree(*n, *k, *delta, 5**n, rng)
		}
		// A -scenario instance is not built from -delta; the reduced
		// machine panics past its degree bound, so reject the mismatch.
		if d := g.MaxDegree(); d > *delta {
			log.Fatalf("-algo reduced needs max degree ≤ delta, but the instance has Δ = %d > %d; raise -delta", d, *delta)
		}
		factory = dist.NewReducedGreedyMachinePool(*delta, g.N())
		bound, boundName = dist.TotalRounds(g.K(), *delta), "TotalRounds(k, Δ)"
		maxRounds = bound + 8
	default:
		log.Fatalf("unknown -algo %q (want greedy or reduced)", *algo)
	}
	g.Flatten()
	fmt.Printf("instance:  n = %d, |E| = %d, k = %d (built in %v)\n",
		g.N(), g.NumEdges(), g.K(), time.Since(start).Round(time.Millisecond))

	start = time.Now()
	outs, stats, err := runtime.Run(g, labels, factory, maxRounds, goruntime.GOMAXPROCS(0))
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	matched := 0
	for _, o := range outs {
		if o.IsMatched() {
			matched++
		}
	}
	fmt.Printf("%-10s %d rounds (bound %s = %d), %d messages\n",
		*algo+":", stats.Rounds, boundName, bound, stats.Messages)
	fmt.Printf("matching:  %d of %d nodes matched\n", matched, g.N())
	fmt.Printf("engine:    %v wall clock — %s on a fixed worker pool\n",
		elapsed.Round(time.Millisecond), nodeRoundsPerSec(g.N(), stats.Rounds, elapsed))

	if err := graph.CheckMatching(g, outs); err != nil {
		log.Fatalf("invalid matching: %v", err)
	}
	fmt.Println("validated: maximal matching (M1–M3 hold)")
}
