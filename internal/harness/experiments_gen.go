package harness

import (
	"fmt"
	"io"
	"reflect"
	goruntime "runtime"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// e15 exercises the scenario generator subsystem: every registered family
// is built twice from the same seed (the builds must be byte-identical),
// validated structurally, and executed with the greedy machine on
// GOMAXPROCS engine workers — labelled families (double-cover) additionally run the
// §1.1 bipartite machine on their labels. The table doubles as a catalogue
// of the families available to mmrun -scenario.
func e15() Experiment {
	return Experiment{
		ID:    "E15",
		Title: "Scenario generator families (CSR-native)",
		Paper: "systems: instance generation",
		Run: func(w io.Writer) error {
			const seed = 7
			table := NewTable("scenario", "n", "|E|", "Δ", "rounds", "matched", "msgs")
			for _, s := range gen.All() {
				overrides := gen.Params{}
				if _, ok := s.Params["n"]; ok {
					overrides["n"] = 256
				}
				inst, err := s.Build(seed, overrides)
				if err != nil {
					return fmt.Errorf("%s: %w", s.Name, err)
				}
				again, err := s.Build(seed, overrides)
				if err != nil {
					return fmt.Errorf("%s: %w", s.Name, err)
				}
				if !reflect.DeepEqual(inst.G.Halves(), again.G.Halves()) {
					return fmt.Errorf("%s: two builds from seed %d differ", s.Name, seed)
				}
				g := inst.G
				if err := g.Validate(); err != nil {
					return fmt.Errorf("%s: %w", s.Name, err)
				}
				outs, stats, err := runtime.Run(g, inst.Labels, dist.NewGreedyMachine,
					runtime.DefaultMaxRounds(g), goruntime.GOMAXPROCS(0))
				if err != nil {
					return fmt.Errorf("%s: %w", s.Name, err)
				}
				if err := graph.CheckMatching(g, outs); err != nil {
					return fmt.Errorf("%s: %w", s.Name, err)
				}
				matched := 0
				for _, o := range outs {
					if o.IsMatched() {
						matched++
					}
				}
				if inst.Labels != nil {
					bouts, _, err := runtime.Run(g, inst.Labels, dist.NewBipartiteMachine,
						4*g.MaxDegree()+16, goruntime.GOMAXPROCS(0))
					if err != nil {
						return fmt.Errorf("%s (bipartite): %w", s.Name, err)
					}
					if err := graph.CheckMatching(g, bouts); err != nil {
						return fmt.Errorf("%s (bipartite): %w", s.Name, err)
					}
				}
				table.AddRow(s.Name, g.N(), g.NumEdges(), g.MaxDegree(), stats.Rounds, matched, stats.Messages)
			}
			table.Render(w)
			fmt.Fprintln(w, "every family: deterministic rebuild, structural validation, valid maximal matching.")
			return nil
		},
	}
}
