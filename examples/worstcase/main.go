// Worstcase walks through the §1.2 lower-bound example for the greedy
// algorithm: two edge-coloured paths whose distinguished endpoints u and v
// cannot be told apart within k−2 rounds, yet greedy matches exactly one
// of them — so any faithful implementation of greedy needs k−1 rounds.
package main

import (
	"fmt"
	"log"

	"repro/internal/colsys"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/runtime"
)

func main() {
	const k = 4
	wc, err := graph.NewWorstCase(k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("§1.2 worst case for k = %d:\n", k)
	fmt.Printf("  component 1: u −%d− · −%d− · −%d− · −%d− ·\n", k, k-1, k-2, k-3)
	fmt.Printf("  component 2: v −%d− · −%d− · −%d− ·\n\n", k, k-1, k-2)

	// The local views of u and v agree up to radius k−1…
	for r := 1; r <= k; r++ {
		vu, err := wc.G.View(wc.U, r)
		if err != nil {
			log.Fatal(err)
		}
		vv, err := wc.G.View(wc.V, r)
		if err != nil {
			log.Fatal(err)
		}
		same := colsys.EqualUpTo(vu, vv, r)
		fmt.Printf("  radius-%d views of u and v equal: %v\n", r, same)
	}

	// …so after k−2 communication rounds (views of radius k−1) no
	// deterministic algorithm can treat them differently. Greedy must:
	outs, stats, err := runtime.Run(wc.G, nil, dist.NewGreedyMachine, 100, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n  greedy rounds: %d (= k−1)\n", stats.Rounds)
	fmt.Printf("  greedy at u: %v\n", outs[wc.U])
	fmt.Printf("  greedy at v: %v\n", outs[wc.V])
	if err := graph.CheckMatching(wc.G, outs); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ninformation must travel distance k−1 before u and v can diverge:")
	fmt.Println("the greedy algorithm's k−1 rounds are necessary, not just sufficient.")
}
