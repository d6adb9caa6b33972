// Command benchmark is the repository's end-to-end benchmark. It runs one
// workload in this process, checks every output the program produces, and
// prints the metrics by name and unit, ending with one JSON line:
//
//	go run . --workload engine-rounds --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs untraced and then traced for half the time each, and reports the
// per-layer metrics of the traced half, the per-span self-time table and
// the tracing overhead. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 5

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd and perLayer are the metrics the result line carries, the same
// lists as BENCHMARK.json's end_to_end and per_layer: every workload
// reports every one of them. Anything else measured is printed in the
// tables above the result line only.
var endToEnd = []metricSpec{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"latency_ms", "ms"}, {"peak_rss_mb", "MB"},
}

var perLayer = []metricSpec{
	{"gen.builds", "count"}, {"gen.build_s", "s"}, {"gen.edges_per_s", "1/s"},
	{"cache.hits", "count"}, {"cache.misses", "count"}, {"cache.hit_ratio", "ratio"},
	{"cache.resolve_p50_us", "us"},
	{"runtime.run_s", "s"}, {"runtime.rounds", "count"}, {"runtime.messages", "count"},
	{"runtime.wire_mb", "MB"}, {"runtime.round_us", "us"}, {"runtime.msgs_per_s", "1/s"},
	{"sweep.cells", "count"}, {"sweep.emit_s", "s"}, {"sweep.rows_mb", "MB"},
	{"sweep.peak_buffered", "count"}, {"sweep.violations", "count"}, {"sweep.self_s", "s"},
	{"serve.handler_p50_ms", "ms"}, {"serve.handler_p99_ms", "ms"}, {"serve.write_p50_ms", "ms"},
	{"serve.refused", "count"}, {"serve.residual_p50_ms", "ms"}, {"serve.self_s", "s"},
	{"loadgen.sent", "count"}, {"loadgen.late_p99_ms", "ms"}, {"loadgen.inflight_peak", "count"},
	{"proc.gc_cycles", "count"}, {"proc.gc_pause_ms", "ms"}, {"proc.heap_peak_mb", "MB"},
	{"fail_frac", "ratio"}, {"trace.spans", "count"}, {"trace.overhead_pct", "%"},
}

// fillIdle reports 0 for every per-layer metric of the named layers that
// s lacks: a layer a workload's measured phase does no work in (no builds,
// no cache, no HTTP) has nothing to count and takes no time.
func fillIdle(s *metricSet, layers ...string) {
	for _, m := range perLayer {
		layer, _, _ := strings.Cut(m.name, ".")
		if _, ok := s.get(m.name); !ok && slices.Contains(layers, layer) {
			s.add(m.name, m.unit, 0)
		}
	}
}

// workload is one benchmark workload: set-up, then measured phases.
type workload interface {
	// setupOnce performs one full set-up; the last one's state is measured.
	setupOnce() error
	// measure runs the workload for about d; with a tracer it also fills
	// phase.layers and records spans.
	measure(d time.Duration, tr *tracer) phase
	close() error
}

// phase is what one measured interval produced.
type phase struct {
	e2e       *metricSet
	layers    *metricSet  // traced only
	spans     []layerTime // traced only
	wall      time.Duration
	attempted int64
	failed    int64
	firstErr  string
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "engine-rounds, sweep-cold or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	traceFlag := fs.Int("trace", 0, "1 = add a traced run and report per-layer metrics")
	limitMS := fs.Float64("limit-ms", 0, "serve-mixed: latency limit a closed-loop completion must meet to count in ops_per_s")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	var w workload
	switch *name {
	case "engine-rounds":
		w = engineRounds(*seed)
	case "sweep-cold":
		w = sweepCold(*seed)
	case "serve-mixed":
		if *limitMS <= 0 {
			fmt.Fprintln(os.Stderr, "benchmark: serve-mixed needs a positive --limit-ms")
			return 2
		}
		w = newServeLoad(*seed, time.Duration(*limitMS*float64(time.Millisecond)))
	default:
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	traced := *traceFlag == 1

	host := collectHost(".", *seed)
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)
	fmt.Printf("workload %s, %gs measured, trace=%d\n", *name, *seconds, *traceFlag)

	setups, err := runSetup(w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s set-up: %v\n", *name, err)
		w.close()
		return 1
	}
	setup := median(setups)
	fmt.Printf("setup: median of %d = %.4fs %s\n", setupReps, setup, fmtWindows(setups))

	d := time.Duration(*seconds * float64(time.Second))
	out := newMetricSet()
	var attempted, failed int64
	var firstErr string
	if !traced {
		rss := startRSS()
		ph := w.measure(d, nil)
		peaks := rss.end()
		attempted, failed, firstErr = ph.attempted, ph.failed, ph.firstErr
		out.add("setup_s", "s", setup)
		for _, n := range ph.e2e.names {
			v, _ := ph.e2e.get(n)
			out.add(n, ph.e2e.m[n].Unit, v)
		}
		fmt.Printf("  peak_rss_mb: median of %d windows of %v = %.4g (VmHWM of the process %.4g) %s\n",
			len(peaks), rssWindow, median(peaks), peakRSSMB(), fmtWindows(peaks))
		out.add("peak_rss_mb", "MB", median(peaks))
	} else {
		base := w.measure(d/2, nil)
		tr := newTracer()
		ph := w.measure(d/2, tr)
		attempted, failed = base.attempted+ph.attempted, base.failed+ph.failed
		firstErr = base.firstErr
		if firstErr == "" {
			firstErr = ph.firstErr
		}
		fmt.Printf("layers (traced half, %.2fs):\n", ph.wall.Seconds())
		printLayers(os.Stdout, ph.spans)
		printOverhead(base.e2e, ph.e2e)
		out = ph.layers
		if out == nil {
			out = newMetricSet()
		}
		fmt.Printf("  fail_frac = %d failed / %d attempted\n", failed, attempted)
		out.add("fail_frac", "ratio", float64(failed)/float64(attempted))
		out.add("trace.spans", "count", float64(len(tr.snapshot())))
		out.add("trace.overhead_pct", "%", overheadPct(base.e2e, ph.e2e))
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := writeSpans(path, host, tr); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing spans: %v\n", err)
		} else {
			fmt.Printf("spans written to %s\n", path)
		}
	}
	if err := w.close(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: shutdown: %v\n", err)
		failed++
	}

	fmt.Printf("metrics (%d attempted, %d failed):\n", attempted, failed)
	out.print(os.Stdout, "  ")
	if failed > 0 {
		fmt.Printf("FAILED: %s\n", firstErr)
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	result, missing := out.only(want)
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s measured no %s: the run was too short for the rules printed above\n",
			*name, strings.Join(missing, ", "))
		return 1
	}
	if err := writeResult(os.Stdout, attempted, failed, result); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// runSetup runs the workload's set-up setupReps times and returns each
// repetition's duration in seconds.
func runSetup(w workload) ([]float64, error) {
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setupOnce(); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// printOverhead prints each end-to-end metric of the untraced and traced
// halves and their difference.
func printOverhead(base, traced *metricSet) {
	fmt.Println("tracing overhead (traced half minus untraced half):")
	for _, n := range base.names {
		b, _ := base.get(n)
		t, ok := traced.get(n)
		if !ok {
			continue
		}
		fmt.Printf("  %-12s untraced %10.4g  traced %10.4g  diff %+10.4g %s (%+.1f%% of untraced)\n",
			n, b, t, t-b, base.m[n].Unit, 100*(t-b)/b)
	}
}

// overheadPct is how much slower the traced half ran than the untraced
// half, in percent: the ratio of their ops_per_s, minus one.
func overheadPct(base, traced *metricSet) float64 {
	b, ok1 := base.get("ops_per_s")
	t, ok2 := traced.get("ops_per_s")
	if !ok1 || !ok2 {
		return math.NaN()
	}
	return 100 * (b/t - 1)
}
