// Top-level benchmarks: one per experiment of EXPERIMENTS.md, so every
// figure/lemma/theorem reproduction has a `go test -bench` entry point, plus
// end-to-end benchmarks of the two headline pipelines (the greedy machine
// and the Theorem 5 adversary).
package repro

import (
	"context"
	"io"
	"math/rand"
	goruntime "runtime"
	"strconv"
	"testing"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/harness"
	"repro/internal/runtime"
	"repro/internal/sweep"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkE1GreedyRounds(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkE2WorstCase(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3ColourSystems(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4Encoding(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkE5Template(b *testing.B)      { benchExperiment(b, "E5") }
func BenchmarkE6Extension(b *testing.B)     { benchExperiment(b, "E6") }
func BenchmarkE7BaseCase(b *testing.B)      { benchExperiment(b, "E7") }
func BenchmarkE8Inductive(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9Adversary(b *testing.B)     { benchExperiment(b, "E9") }
func BenchmarkE10Regular(b *testing.B)      { benchExperiment(b, "E10") }
func BenchmarkE12Lemmas(b *testing.B)       { benchExperiment(b, "E12") }
func BenchmarkE13Views(b *testing.B)        { benchExperiment(b, "E13") }
func BenchmarkE14Related(b *testing.B)      { benchExperiment(b, "E14") }
func BenchmarkE15Scenarios(b *testing.B)    { benchExperiment(b, "E15") }

// E11 sweeps palettes up to 2048 and is by far the heaviest experiment;
// gate it so default -bench=. runs stay snappy while -bench=E11 still works.
func BenchmarkE11UpperBounds(b *testing.B) {
	if testing.Short() {
		b.Skip("E11 sweeps k up to 2048; skipped with -short")
	}
	benchExperiment(b, "E11")
}

// BenchmarkAdversaryByK isolates the Theorem 5 pipeline per palette size.
func BenchmarkAdversaryByK(b *testing.B) {
	for _, k := range []int{3, 4, 5, 6} {
		b.Run(benchName(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				adv, err := core.New(algo.NewGreedy(), k)
				if err != nil {
					b.Fatal(err)
				}
				res, err := adv.Run()
				if err != nil {
					b.Fatal(err)
				}
				if res.OutV.IsMatched() {
					b.Fatal("wrong adversary outcome")
				}
			}
		})
	}
}

// BenchmarkGreedyMachineEngines compares runtime.Run's inline round loop
// ("sequential") with its GOMAXPROCS-worker path ("workers") on the same
// instances; both are allocation-free per round (BENCH_pr1.json records a
// baseline).
//
// The instance is a union of partial random matchings rather than a
// k-regular graph: in a k-regular properly coloured graph every node has a
// colour-1 edge and greedy halts at time 0, so nothing but setup would be
// measured. Both paths share one arena-backed machine pool, so the numbers
// isolate engine round-loop cost from per-machine allocation.
func BenchmarkGreedyMachineEngines(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		rng := rand.New(rand.NewSource(1))
		g := graph.RandomMatchingUnion(n, 6, 0.7, rng)
		g.Flatten() // build the CSR once so no engine pays for it in-loop
		factory := dist.NewGreedyMachinePool(n)
		prefix := "n=" + strconv.Itoa(n) + "/"
		b.Run(prefix+"sequential", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := runtime.Run(g, nil, factory, 64, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(prefix+"workers", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := runtime.Run(g, nil, factory, 64, goruntime.GOMAXPROCS(0)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReducedPipelineEngines measures the full ReducedGreedyMachine
// pipeline (Linial reduction + recolouring + greedy) on runtime.Run's
// inline and GOMAXPROCS-worker paths. Both share one pooled machine arena;
// with the per-worker RoundArena the round loop performs no allocations
// even though every reduction round sends a colour list per node
// (BENCH_pr2.json records a baseline).
func BenchmarkReducedPipelineEngines(b *testing.B) {
	const delta = 3
	for _, p := range []struct{ n, k int }{{4096, 256}, {65536, 1024}} {
		if p.n > 1<<13 && testing.Short() {
			continue
		}
		rng := rand.New(rand.NewSource(2))
		g := graph.RandomBoundedDegree(p.n, p.k, delta, 5*p.n, rng)
		g.Flatten()
		maxR := dist.TotalRounds(p.k, delta) + 8
		pool := dist.NewReducedGreedyMachinePool(delta, p.n)
		prefix := "n=" + strconv.Itoa(p.n) + ",k=" + strconv.Itoa(p.k) + "/"
		b.Run(prefix+"sequential", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := runtime.Run(g, nil, pool, maxR, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(prefix+"workers", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := runtime.Run(g, nil, pool, maxR, goruntime.GOMAXPROCS(0)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkersScaling is the multi-core scaling study for runtime.Run:
// the same instance driven with 1…16 workers (independent of GOMAXPROCS, so
// the shard/barrier overhead is visible even on small hosts). BENCH_pr2.json
// records a run with the host core count alongside.
func BenchmarkWorkersScaling(b *testing.B) {
	for _, n := range []int{1 << 18, 1 << 20} {
		if n > 1<<18 && testing.Short() {
			continue
		}
		rng := rand.New(rand.NewSource(1))
		g := graph.RandomMatchingUnion(n, 6, 0.7, rng)
		g.Flatten()
		factory := dist.NewGreedyMachinePool(n)
		for _, workers := range []int{1, 2, 4, 8, 16} {
			b.Run("n="+strconv.Itoa(n)+"/workers="+strconv.Itoa(workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := runtime.Run(g, nil, factory, 64, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEngineTailRounds isolates the per-round liveness-scan cost the
// bitset frontiers attack: a §1.2 worst-case path of k edges embedded in a
// sea of isolated nodes, so greedy runs ~k rounds with a handful of live
// nodes each. An engine that walks all n nodes (or halted flags) per round
// pays O(nk) for the tail; a 64-bit word frontier pays O(nk/64 + live).
func BenchmarkEngineTailRounds(b *testing.B) {
	const k = 512
	for _, n := range []int{1 << 18, 1 << 20} {
		if n > 1<<18 && testing.Short() {
			continue
		}
		bld := graph.NewCSRBuilder(n, k)
		for i := 0; i < k; i++ {
			if err := bld.AddEdge(i, i+1, group.Color(k-i)); err != nil {
				b.Fatal(err)
			}
		}
		g, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		g.Flatten()
		pool := dist.NewGreedyMachinePool(n)
		prefix := "n=" + strconv.Itoa(n) + "/"
		b.Run(prefix+"sequential", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := runtime.Run(g, nil, pool, k+16, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(prefix+"workers=2", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := runtime.Run(g, nil, pool, k+16, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE11SweepParallel measures the parallel palette sweep behind E11
// at several GOMAXPROCS settings; the speedup at procs=N over procs=1 is
// the sweep's multi-core yield (palette sizes are embarrassingly parallel).
func BenchmarkE11SweepParallel(b *testing.B) {
	if testing.Short() {
		b.Skip("the sweep reaches k=2048; skipped with -short")
	}
	ks := []int{4, 8, 16, 64, 256, 1024, 2048}
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run("procs="+strconv.Itoa(procs), func(b *testing.B) {
			prev := goruntime.GOMAXPROCS(procs)
			defer goruntime.GOMAXPROCS(prev)
			for i := 0; i < b.N; i++ {
				if _, err := harness.E11PaletteSweep(ks, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenMatchingUnion compares instance construction on the CSR
// builder (the path every constructor and scenario now uses) against the
// retained legacy per-node-map path at benchmark scale. The acceptance bar
// for the generator subsystem is ≥5× fewer allocations on the builder; in
// practice the gap is orders of magnitude, since the map path allocates
// per node and the builder amortises everything into a handful of slabs.
func BenchmarkGenMatchingUnion(b *testing.B) {
	const n, k = 65536, 6
	b.Run("csr-builder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(1))
			graph.RandomMatchingUnion(n, k, 0.7, rng)
		}
	})
	b.Run("legacy-map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(1))
			graph.LegacyRandomMatchingUnion(n, k, 0.7, rng)
		}
	})
}

// BenchmarkGenBoundedDegree is the same comparison for the §1.3 k ≫ Δ
// instances (the reduced-pipeline benchmark setup).
func BenchmarkGenBoundedDegree(b *testing.B) {
	const n, k, delta = 65536, 1024, 3
	b.Run("csr-builder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(2))
			graph.RandomBoundedDegree(n, k, delta, 5*n, rng)
		}
	})
	b.Run("legacy-map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(2))
			graph.LegacyRandomBoundedDegree(n, k, delta, 5*n, rng)
		}
	})
}

// BenchmarkGenSharded measures the sharded parallel constructors across
// worker counts against their own 1-worker baseline (the output is
// byte-identical across the row, so this is pure construction wall-clock:
// per-colour-class generation fans out, the merge is sequential, and the
// CSR fill/sort/mate passes shard over node ranges). On a single-core host
// the row shows the coordination overhead instead of speedup.
func BenchmarkGenSharded(b *testing.B) {
	const n = 65536
	seedsFor := func(name string, k int) []int64 { return gen.ClassSeeds(name, 1, k) }
	b.Run("matching-union", func(b *testing.B) {
		const k = 6
		seeds := seedsFor("matching-union", k)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := graph.ShardedMatchingUnion(n, k, 0.7, seeds, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
	b.Run("regular", func(b *testing.B) {
		const k = 8
		seeds := seedsFor("regular", k)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := graph.ShardedRegular(n, k, seeds, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}

// BenchmarkSweepStream compares the buffered Run against the streaming
// pipeline on a grid big enough for the reorder window to matter. The
// interesting number is allocs/op: the stream holds a bounded window and
// recycles per-round histogram buffers, so its footprint is flat in the
// cell count while Run's grows linearly.
func BenchmarkSweepStream(b *testing.B) {
	cfg := sweep.Config{
		Grids:       []string{"matching-union:n=256..1024,k=2|4"},
		Algos:       []string{"greedy", "proposal"},
		Reps:        4,
		Seed:        1,
		CheckBounds: true,
	}
	b.Run("buffered-run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sweep.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream-discard", func(b *testing.B) {
		b.ReportAllocs()
		sink := sweep.NewJSONLSink(io.Discard)
		for i := 0; i < b.N; i++ {
			if _, err := sweep.Stream(context.Background(), cfg, sink); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGenScenarios builds every registered scenario at a mid-size n,
// so the bench smoke run exercises the whole registry and allocation
// regressions in any family are visible.
func BenchmarkGenScenarios(b *testing.B) {
	for _, s := range gen.All() {
		overrides := gen.Params{}
		if _, ok := s.Params["n"]; ok {
			overrides["n"] = 4096
		}
		b.Run(s.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Build(int64(i), overrides); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReductionSchedule measures the shared schedule computation that
// every node of the reduced-greedy machine performs at Init.
func BenchmarkReductionSchedule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dist.ReductionSchedule(1<<20, 6)
	}
}

func benchName(k int) string {
	return "k=" + strconv.Itoa(k)
}
