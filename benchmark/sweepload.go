package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// sweepLoad is a workload that drives sweep.Stream directly: a fixed grid,
// run pass after pass until the measured time is used up. Only whole
// passes are measured, so every run weighs the grid's cells the same.
type sweepLoad struct {
	// passConfigs returns the configs of measured pass p.
	passConfigs func(p int) []sweep.Config
	// setup is one repetition of the workload's set-up.
	setup func() error
	// provider serves the measured passes' instances (nil = the registry).
	// topName is the span name of calls into it: "resolve" over a cache,
	// "gen" when every call builds.
	provider sweep.InstanceProvider
	topName  string
	// gen times construction under the cache, when there is one.
	gen   *providerSeam
	cache *sweep.CachingProvider
	// idle names the layers the measured passes do no work in.
	idle []string
}

// engineRounds is the paper's §1.3 regime: bounded-degree graphs with
// k ≫ Δ, where greedy needs k−1 rounds and the reduced schedule
// O(Δ + log* k). Instances are built into a cache during set-up, so the
// measured passes are the engines' round loops and nothing else.
func engineRounds(seed int64) *sweepLoad {
	// Three instance seeds, one pass each in turn: a pass is one sweep of
	// 6 cells, about a second, so a run holds dozens of passes.
	var cfgs []sweep.Config
	for i := 0; i < 3; i++ {
		cfgs = append(cfgs, sweep.Config{
			Grids:         []string{"bounded-degree:n=16384,delta=3,k=256|1024"},
			Algos:         []string{"greedy", "reduced", "proposal"},
			Seed:          gen.SubSeed(seed, "engine-rounds", strconv.Itoa(i)),
			CellWorkers:   1,
			EngineWorkers: 2,
			CheckBounds:   true,
		})
	}
	l := &sweepLoad{
		passConfigs: func(p int) []sweep.Config { return cfgs[p%len(cfgs) : p%len(cfgs)+1] },
		topName:     "resolve",
		idle:        []string{"gen", "serve", "loadgen"},
	}
	// Set-up also runs each algorithm once on a small instance of its own
	// seed, so the engines' pools are filled before anything is timed.
	warm := cfgs[0]
	warm.Grids, warm.Seed = []string{"bounded-degree:n=4096,delta=3,k=256"}, gen.SubSeed(seed, "engine-rounds-warmup")
	l.setup = func() error {
		if err := drain(warm); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		var specs []sweep.InstanceSpec
		for _, cfg := range cfgs {
			s, err := instanceSpecs(cfg)
			if err != nil {
				return err
			}
			specs = append(specs, s...)
		}
		l.gen = newProviderSeam("gen", sweep.RegistryProvider{})
		l.cache = sweep.NewCachingProvider(l.gen, len(specs))
		for _, s := range specs {
			if _, err := l.cache.Instance(s); err != nil {
				return fmt.Errorf("set-up: %s: %w", s.ID(), err)
			}
		}
		l.provider = l.cache
		return nil
	}
	return l
}

// sweepCold is a cold mmsweep-style grid: every cell builds a fresh
// instance, so construction dominates, and cells run in parallel on the
// sequential engine (the other way round from engine-rounds). Bipartite
// runs only on the labelled double covers, so no cell is skipped.
func sweepCold(seed int64) *sweepLoad {
	base := sweep.Config{
		Reps:          2,
		CellWorkers:   2,
		EngineWorkers: 1,
		CheckBounds:   true,
	}
	grids := func(s int64, unlabelled, labelled []string) []sweep.Config {
		a, b := base, base
		a.Grids, a.Algos, a.Seed = unlabelled, []string{"greedy", "proposal"}, s
		b.Grids, b.Algos, b.Seed = labelled, []string{"greedy", "proposal", "bipartite"}, s
		return []sweep.Config{a, b}
	}
	l := &sweepLoad{
		passConfigs: func(p int) []sweep.Config {
			return grids(gen.SubSeed(seed, "sweep-cold", strconv.Itoa(p)),
				[]string{"matching-union:n=4096..16384,k=32|64", "tree:n=4096..16384"},
				[]string{"double-cover:n=2048..8192"})
		},
		topName: "gen",
		idle:    []string{"cache", "serve", "loadgen"},
	}
	// Set-up is a warm-up pass over a smaller grid with its own seed: it
	// fills the driver's and engines' pools before anything is timed.
	warm := grids(gen.SubSeed(seed, "sweep-cold-warmup"),
		[]string{"matching-union:n=1024..4096,k=32", "tree:n=1024..4096"},
		[]string{"double-cover:n=512..2048"})
	l.setup = func() error {
		for _, cfg := range warm {
			if err := drain(cfg); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	}
	return l
}

// drain runs cfg and discards its rows; a row with violations fails it.
func drain(cfg sweep.Config) error {
	_, err := sweep.Stream(context.Background(), cfg, sweep.SinkFunc(func(r *sweep.Result) error {
		if r.Skip != "" || len(r.Violations) > 0 {
			return fmt.Errorf("%s: skip=%q violations=%v", r.ID(), r.Skip, r.Violations)
		}
		return nil
	}))
	return err
}

// instanceSpecs lists the distinct instances cfg's cells will ask for, with
// the seeds the sweep derives for them.
func instanceSpecs(cfg sweep.Config) ([]sweep.InstanceSpec, error) {
	plan, err := sweep.CellPlan(cfg)
	if err != nil {
		return nil, err
	}
	params := map[string]gen.Params{}
	for _, g := range cfg.Grids {
		sc, grid, err := gen.ParseGrid(g)
		if err != nil {
			return nil, err
		}
		for _, p := range grid {
			params[sc.Name+":"+p.String()] = p
		}
	}
	var specs []sweep.InstanceSpec
	seen := map[string]bool{}
	for _, c := range plan {
		key := planKey(c)
		if seen[key] {
			continue
		}
		seen[key] = true
		scenarioParams, _, _ := strings.Cut(c.ID, "/")
		scenario, _, _ := strings.Cut(scenarioParams, ":")
		specs = append(specs, sweep.InstanceSpec{Scenario: scenario, Params: params[scenarioParams], Seed: c.Seed})
	}
	return specs, nil
}

func (l *sweepLoad) setupOnce() error { return l.setup() }

func (l *sweepLoad) close() error { return nil }

// measure runs whole passes until d has elapsed. With a tracer it also
// wraps the provider and sink, collects sweep.Metrics and records spans.
func (l *sweepLoad) measure(d time.Duration, tr *tracer) phase {
	out := &countingWriter{}
	sink := &sinkSeam{inner: sweep.NewJSONLSink(out), tr: tr}
	var (
		top       *providerSeam
		sm        *sweep.Metrics
		proc      *procSampler
		cacheBase sweep.CacheStats
		peakBuf   int
		streamErr int64
		firstErr  string
	)
	if tr != nil {
		top = newProviderSeam(l.topName, l.provider)
		if top.inner == nil {
			top.inner = sweep.RegistryProvider{}
		}
		sm = sweep.NewMetrics(obs.NewRegistry())
		if l.gen != nil {
			l.gen.drain()
			l.gen.trace(tr, 0)
			defer l.gen.trace(nil, 0)
		}
		if l.cache != nil {
			cacheBase = l.cache.Stats()
		}
		proc = startProc()
	}
	// Each pass's rate and wall time are kept, and their medians reported,
	// so that a burst of noise on the host moves one pass rather than the
	// run.
	var rates, passMS []float64
	start := time.Now()
	for p := 0; p == 0 || time.Since(start) < d; p++ {
		passStart, passRows := time.Now(), sink.rows
		for _, cfg := range l.passConfigs(p) {
			cfg.Provider = l.provider
			var streamID int64
			var streamStart time.Time
			if tr != nil {
				streamID, streamStart = tr.id(), time.Now()
				top.trace(tr, streamID)
				sink.parent = streamID
				cfg.Provider, cfg.Metrics = top, sm
			}
			st, err := sweep.Stream(context.Background(), cfg, sink)
			if tr != nil {
				tr.add(span{ID: streamID, Name: "stream", Lanes: cfg.CellWorkers, Start: streamStart, End: time.Now()})
			}
			peakBuf = max(peakBuf, st.PeakBuffered)
			if err != nil {
				streamErr++
				if firstErr == "" {
					firstErr = err.Error()
				}
			}
		}
		passD := time.Since(passStart)
		rates = append(rates, float64(sink.rows-passRows)/passD.Seconds())
		passMS = append(passMS, float64(passD)/float64(time.Millisecond))
	}
	wall := time.Since(start)

	if firstErr == "" {
		firstErr = sink.firstBad
	}
	ph := phase{wall: wall, attempted: sink.rows + streamErr, failed: sink.bad + streamErr, firstErr: firstErr, e2e: newMetricSet()}
	fmt.Printf("  ops_per_s (cells/s): median of %d passes = %.4g (pooled %d cells in %.2fs) %s\n",
		len(rates), median(rates), sink.rows, wall.Seconds(), fmtWindows(rates))
	fmt.Printf("  latency_ms (wall time of one pass): median of %d passes = %.4g\n", len(passMS), median(passMS))
	ph.e2e.add("ops_per_s", "1/s", median(rates))
	ph.e2e.add("latency_ms", "ms", median(passMS))
	if tr == nil {
		return ph
	}

	ps := proc.end()
	spans := tr.snapshot()
	ph.spans = selfTimes(spans)
	ls := newMetricSet()
	ph.layers = ls

	r := top.drain()
	g := r
	if l.gen != nil {
		g = l.gen.drain()
	}
	ls.add("gen.builds", "count", float64(g.Calls))
	ls.add("gen.build_s", "s", g.Busy.Seconds())
	ls.add("gen.edges_per_s", "1/s", float64(g.Edges)/g.Busy.Seconds())

	if l.cache != nil {
		cs := l.cache.Stats()
		hits, misses := cs.Hits-cacheBase.Hits, cs.Misses-cacheBase.Misses
		fmt.Printf("  cache.hit_ratio = %d hits / %d lookups\n", hits, hits+misses)
		ls.add("cache.hits", "count", float64(hits))
		ls.add("cache.misses", "count", float64(misses))
		ls.add("cache.hit_ratio", "ratio", float64(hits)/float64(hits+misses))
		addDurQuantile(ls, "cache.resolve_p50_us", 0.5, "us", time.Microsecond, r.Durs)
		addDurQuantile(ls, "cache.resolve_p99_us", 0.99, "us", time.Microsecond, r.Durs)
	}

	runS := sm.Run.Sum()
	ls.add("runtime.run_s", "s", runS)
	ls.add("runtime.rounds", "count", float64(sink.rounds))
	ls.add("runtime.messages", "count", float64(sink.messages))
	ls.add("runtime.wire_mb", "MB", float64(sink.wireBytes)/1e6)
	ls.add("runtime.round_us", "us", runS/float64(sink.rounds)*1e6)
	ls.add("runtime.msgs_per_s", "1/s", float64(sink.messages)/runS)

	ls.add("sweep.cells", "count", float64(sink.rows))
	ls.add("sweep.emit_s", "s", sm.Emit.Sum())
	ls.add("sweep.rows_mb", "MB", float64(out.n)/1e6)
	ls.add("sweep.peak_buffered", "count", float64(peakBuf))
	ls.add("sweep.violations", "count", float64(sm.Violations.Value()))
	// Cell-worker time is each stream's wall time times its cell workers.
	// It includes a worker's waits: at the reorder window, and at the end
	// of a stream while the other worker finishes the last cell.
	var workerSelf, workerTotal time.Duration
	for _, lt := range ph.spans {
		if lt.Name == "stream" {
			workerSelf, workerTotal = lt.Self, lt.Total
		}
	}
	fmt.Println("shares of cell-worker time (each stream's wall time × its cell workers):")
	printShare("runtime.run_s", runS, workerTotal.Seconds())
	printShare("gen.build_s", g.Busy.Seconds(), workerTotal.Seconds())
	printShare("sweep.emit_s", sm.Emit.Sum(), workerTotal.Seconds())
	// The stream's self time is the worker time its resolve and emit
	// spans do not cover; the engine runs inside it are known only as a
	// sum, so they are taken out here rather than by spans.
	ls.add("sweep.self_s", "s", workerSelf.Seconds()-runS)
	ps.add(ls)
	fillIdle(ls, l.idle...)
	return ph
}

// addDurQuantile reports the q-quantile of durs in unit under name,
// omitting it when the percentile rule refuses it (the refusal is printed).
func addDurQuantile(s *metricSet, name string, q float64, unitName string, unit time.Duration, durs []time.Duration) {
	xs := make([]float64, len(durs))
	for i, d := range durs {
		xs[i] = float64(d) / float64(unit)
	}
	r, err := percentile(xs, q)
	if err != nil {
		fmt.Printf("  %s: %v\n", name, err)
		return
	}
	fmt.Printf("  %s: %s\n", name, r)
	s.add(name, unitName, r.Value)
}
