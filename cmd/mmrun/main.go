// Command mmrun executes a distributed maximal-matching machine on a
// generated instance and reports rounds, messages and matching size.
//
// Instances come either from the legacy -graph kinds or from the scenario
// registry in internal/gen (-scenario overrides -graph): every registered
// family can be named, parameterised and rebuilt deterministically from a
// seed.
//
// Usage:
//
//	mmrun -graph worstcase -k 6                    # §1.2 instance, greedy
//	mmrun -graph random -n 100 -k 8 -algo proposal
//	mmrun -graph regular -n 64 -k 5 -workers 0      # one engine worker per core
//	mmrun -scenario matching-union:n=65536,k=6 -workers 8
//	mmrun -scenario caterpillar:k=8,legs=2 -stats  # per-round histogram
//	mmrun -scenario double-cover:n=512 -algo bipartite
//	mmrun -scenario list                           # list the registry
//	mmrun -graph cayley -k 4 -radius 4 -algo reduced -delta 4
//	mmrun -graph figure1 -dot                      # emit Graphviz with the matching
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	goruntime "runtime"

	"repro/internal/cli"
	"repro/internal/colsys"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/runtime"
)

func main() {
	graphKind := flag.String("graph", "worstcase", "instance: figure1, worstcase, random, regular, bounded, cayley")
	scenario := flag.String("scenario", "", "scenario spec name[:param=value,…] from internal/gen (overrides -graph); \"list\" prints the registry")
	algName := flag.String("algo", "greedy", "machine: greedy, proposal, reduced, bipartite (bipartite needs a labelled scenario)")
	workers := flag.Int("workers", 1, "engine workers: 1 runs the round loop inline, 0 means GOMAXPROCS")
	n := flag.Int("n", 64, "number of nodes (random/regular/bounded)")
	k := flag.Int("k", 4, "number of edge colours")
	delta := flag.Int("delta", 3, "degree bound (bounded graphs, reduced machine)")
	radius := flag.Int("radius", 3, "ball radius (cayley graphs)")
	seed := flag.Int64("seed", 1, "random seed")
	stats := flag.Bool("stats", false, "print the per-round message/byte histogram")
	dot := flag.Bool("dot", false, "emit Graphviz DOT with the matching in bold")
	flag.Parse()

	if *scenario == "list" {
		cli.PrintScenarios(os.Stdout)
		return
	}
	if *scenario != "" {
		// Instance-shape flags belong in the spec when a scenario is
		// named; silently ignoring an explicit -n/-k would run a
		// different instance than the user asked for.
		ignored := map[string]bool{"graph": true, "n": true, "k": true, "radius": true}
		flag.Visit(func(f *flag.Flag) {
			if ignored[f.Name] {
				fmt.Fprintf(os.Stderr, "mmrun: -%s has no effect with -scenario; pass instance parameters in the spec (e.g. -scenario name:%s=…)\n", f.Name, f.Name)
				os.Exit(cli.ExitMismatch)
			}
		})
	}

	var g *graph.Graph
	var labels []int
	var err error
	instName := *graphKind
	if *scenario != "" {
		var inst *gen.Instance
		var sc gen.Scenario
		inst, sc, err = gen.BuildSpec(*scenario, *seed)
		if err == nil {
			g, labels, instName = inst.G, inst.Labels, sc.Name
		}
	} else {
		g, err = buildGraph(*graphKind, *n, *k, *delta, *radius, *seed)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmrun: %v\n", err)
		os.Exit(cli.ExitMismatch)
	}

	var factory runtime.Source
	maxRounds := runtime.DefaultMaxRounds(g)
	switch *algName {
	case "greedy":
		factory = dist.NewGreedyMachine
	case "proposal":
		factory = dist.NewProposalMachine
	case "reduced":
		// The reduced machine panics (documented) past its degree bound;
		// with -scenario the instance no longer derives from -delta, so
		// check the mismatch here and fail with a usable message instead.
		if d := g.MaxDegree(); d > *delta {
			fmt.Fprintf(os.Stderr, "mmrun: -algo reduced needs max degree ≤ delta, but the instance has Δ = %d > %d; raise -delta\n", d, *delta)
			os.Exit(cli.ExitMismatch)
		}
		factory = dist.NewReducedGreedyMachine(*delta)
		if t := dist.TotalRounds(g.K(), *delta) + 8; t > maxRounds {
			maxRounds = t
		}
	case "bipartite":
		if labels == nil {
			fmt.Fprintln(os.Stderr, "mmrun: -algo bipartite needs a labelled instance (e.g. -scenario double-cover)")
			os.Exit(cli.ExitMismatch)
		}
		factory = dist.NewBipartiteMachine
		if t := 4*g.MaxDegree() + 16; t > maxRounds {
			maxRounds = t
		}
	default:
		fmt.Fprintf(os.Stderr, "mmrun: unknown algorithm %q\n", *algName)
		os.Exit(cli.ExitMismatch)
	}

	if *workers < 0 {
		fmt.Fprintln(os.Stderr, "mmrun: -workers must be ≥ 0")
		os.Exit(cli.ExitMismatch)
	}
	if *workers == 0 {
		*workers = goruntime.GOMAXPROCS(0)
	}
	outs, st, err := runtime.Run(g, labels, factory, maxRounds, *workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmrun: %v\n", err)
		os.Exit(cli.ExitFailure)
	}

	matching := graph.MatchingEdges(g, outs)
	if *dot {
		if err := g.DOT(os.Stdout, nil, matching); err != nil {
			fmt.Fprintf(os.Stderr, "mmrun: %v\n", err)
			os.Exit(cli.ExitFailure)
		}
		return
	}

	fmt.Printf("instance:  %s (n=%d, |E|=%d, Δ=%d, k=%d)\n",
		instName, g.N(), g.NumEdges(), g.MaxDegree(), g.K())
	fmt.Printf("algorithm: %s on %d engine worker(s)\n", *algName, *workers)
	fmt.Printf("rounds:    %d (greedy bound k−1 = %d)\n", st.Rounds, g.K()-1)
	fmt.Printf("messages:  %d\n", st.Messages)
	fmt.Printf("matching:  %d edges\n", len(matching))
	if *stats {
		printPerRound(st)
	}
	if err := graph.CheckMatching(g, outs); err != nil {
		fmt.Fprintf(os.Stderr, "mmrun: INVALID OUTPUT: %v\n", err)
		os.Exit(cli.ExitFailure)
	}
	fmt.Println("validated: maximal matching (M1–M3 hold)")
}

// printPerRound renders the run's per-round traffic histogram.
func printPerRound(st *runtime.Stats) {
	fmt.Println("per-round traffic:")
	fmt.Printf("  %5s  %9s  %10s\n", "round", "messages", "bytes")
	for r, t := range st.PerRound {
		fmt.Printf("  %5d  %9d  %10d\n", r+1, t.Messages, t.Bytes)
	}
}

func buildGraph(kind string, n, k, delta, radius int, seed int64) (*graph.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case "figure1":
		return graph.Figure1()
	case "worstcase":
		wc, err := graph.NewWorstCase(k)
		if err != nil {
			return nil, err
		}
		return wc.G, nil
	case "random":
		return graph.RandomMatchingUnion(n, k, 0.8, rng), nil
	case "regular":
		return graph.RandomRegular(n, k, rng)
	case "bounded":
		return graph.RandomBoundedDegree(n, k, delta, 6*n, rng), nil
	case "cayley":
		g, _, err := graph.FromSystem(colsys.Full(k), radius)
		return g, err
	default:
		return nil, fmt.Errorf("unknown graph kind %q", kind)
	}
}
