package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/sweep"
)

// A stall on every connection holds later requests in the pacer's queue;
// timed from their due time they carry that wait, although the server
// answered them instantly.
func TestDueTimeLatencyCarriesStall(t *testing.T) {
	const stall = 100 * time.Millisecond
	clock := loadgen.NewFakeClock()
	prof := loadgen.Profile{Rate: 100, Hold: time.Second} // slot i due at (i+1)·10ms
	service := make([]time.Duration, prof.Slots())
	res := pace(prof, clock, func(slot int, due, sent time.Time) (time.Time, error) {
		if slot < connections {
			clock.Sleep(context.Background(), stall)
		}
		done := clock.Now()
		service[slot] = done.Sub(sent)
		return done, nil
	})
	if res.failed != 0 || len(res.lat) != prof.Slots() {
		t.Fatalf("failed=%d, %d latencies for %d slots", res.failed, len(res.lat), prof.Slots())
	}
	// Slot 2 is due at 30ms, but both connections are stalled until at
	// least 10ms+stall.
	if want := stall - 20*time.Millisecond; res.late[connections] < want {
		t.Errorf("slot %d sent %v late, want ≥ %v", connections, res.late[connections], want)
	}
	for i := range res.lat {
		if res.lat[i] < res.late[i] || res.lat[i] < service[i] {
			t.Errorf("slot %d: latency %v below lateness %v or service time %v", i, res.lat[i], res.late[i], service[i])
		}
	}
	if carried := res.lat[connections] - service[connections]; carried < stall-20*time.Millisecond {
		t.Errorf("slot %d carries %v of the stall, want ≥ %v", connections, carried, stall-20*time.Millisecond)
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 100 samples (1 beyond) was not refused")
	} else if !strings.Contains(err.Error(), "n=100") || !strings.Contains(err.Error(), "1 beyond") {
		t.Errorf("refusal %q does not state n and the count beyond", err)
	}
	q, err := percentile(xs, 0.5)
	if err != nil || q.Value != 50 || q.N != 100 || q.Beyond != 50 {
		t.Errorf("p50 = %+v, %v; want 50 with n=100, 50 beyond", q, err)
	}

	xs = make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	q, err = percentile(xs, 0.99)
	if err != nil || q.Value != 990 || q.Beyond != 10 {
		t.Errorf("p99 of 1..1000 = %+v, %v; want 990 with 10 beyond", q, err)
	}
	if !strings.Contains(q.String(), "n=1000") || !strings.Contains(q.String(), "beyond=10") {
		t.Errorf("%q does not print n and the count beyond", q)
	}

	// Failures count as +Inf: with 2% failed, the p99 is a failure.
	for i := 0; i < 20; i++ {
		xs[i] = ms(failedLatency)
	}
	if q, _ = percentile(xs, 0.99); !math.IsInf(q.Value, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", q.Value)
	}
}

func TestGoodputExcludesOverLimit(t *testing.T) {
	ms := time.Millisecond
	lat := []time.Duration{ms, 26 * ms, 25 * ms, failedLatency, time.Second, 3 * ms, 4 * ms, ms}
	at := []time.Duration{100 * ms, 900 * ms, 1100 * ms, 1500 * ms, 2100 * ms, 2200 * ms, 2300 * ms, 3100 * ms}
	// Windows of 1s over 3.5s: three full windows with 1, 1 and 2 requests
	// within 25ms; the completion at 3.1s is in no full window.
	got, windows := windowedGoodput(lat, at, 25*ms, time.Second, 3500*ms)
	if got != 1 || !reflect.DeepEqual(windows, []float64{1, 1, 2}) {
		t.Errorf("goodput = %v/s over windows %v, want the median 1/s of [1 1 2]", got, windows)
	}
}

func TestWindowMax(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	at := []time.Duration{ms(0), ms(400), ms(900), ms(1000), ms(1500), ms(2100)}
	v := []float64{5, 9, 7, 3, 4, 100}
	// The sample at 2.1 s lies in a window the run did not finish.
	if got, want := windowMax(at, v, time.Second, ms(2500)), []float64{9, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("windowMax = %v, want %v", got, want)
	}
}

func TestWindowedPercentile(t *testing.T) {
	// Three windows of 1000 samples; the middle one is a burst of noise.
	var xs []float64
	for _, scale := range []float64{1, 100, 2} {
		for i := 1; i <= 1000; i++ {
			xs = append(xs, scale*float64(i))
		}
	}
	v, windows, err := windowedPercentile(xs, 1000, 0.99)
	if err != nil || v != 2*990 || !reflect.DeepEqual(windows, []float64{990, 99000, 1980}) {
		t.Errorf("windowed p99 = %v over windows %v (%v), want the median 1980 of [990 99000 1980]", v, windows, err)
	}
	if _, _, err := windowedPercentile(xs, 100, 0.99); err == nil {
		t.Error("windows of 100 samples passed the p99 rule")
	}
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "p99 ms", "cache/hits", "_lead", "x{y}"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q was accepted", bad)
				}
			}()
			newMetricSet().add(bad, "s", 1)
		}()
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !metricName.MatchString(m.Name) || seen[m.Name] || !unit.MatchString(m.Unit) {
			t.Errorf("metric %q (unit %q) is malformed or repeated", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	for _, w := range spec.Workloads {
		if !metricName.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
	}
	// The result line carries exactly the manifest's metrics, in its units.
	for _, c := range []struct {
		list     []metricSpec
		manifest []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		var got []struct{ Name, Unit string }
		for _, m := range c.list {
			got = append(got, struct{ Name, Unit string }{m.name, m.unit})
		}
		if !reflect.DeepEqual(got, c.manifest) {
			t.Errorf("code reports %v, BENCHMARK.json lists %v", got, c.manifest)
		}
	}
}

// A layer a workload does not exercise reads 0 in every metric it lacks;
// measured values are kept, and only the result's metrics are written.
func TestFillIdleAndOnly(t *testing.T) {
	s := newMetricSet()
	s.add("gen.builds", "count", 0)
	s.add("gen.build_s", "s", 0)
	s.add("gen.edges_per_s", "1/s", math.NaN()) // no builds: no rate
	s.add("serve.refused", "count", 3)
	fillIdle(s, "gen", "serve")
	for _, m := range perLayer {
		layer, _, _ := strings.Cut(m.name, ".")
		v, ok := s.get(m.name)
		switch {
		case m.name == "serve.refused":
			if v != 3 {
				t.Errorf("serve.refused = %v, want the measured 3", v)
			}
		case layer == "gen" || layer == "serve":
			if !ok || v != 0 {
				t.Errorf("%s = %v (present %v), want 0", m.name, v, ok)
			}
		case ok:
			t.Errorf("%s filled although its layer is not idle", m.name)
		}
	}
	s.add("p99_ms", "ms", 9)
	sub, missing := s.only(perLayer)
	if _, ok := sub.get("p99_ms"); ok {
		t.Error("a metric outside the list reached the result")
	}
	if len(missing) == 0 || missing[0] != "cache.hits" {
		t.Errorf("missing = %v, want it to start at cache.hits", missing)
	}
}

func TestResultShape(t *testing.T) {
	set := newMetricSet()
	set.add("latency_ms", "ms", 1.25)
	set.add("gen.edges_per_s", "1/s", math.NaN()) // no meaning: omitted
	var buf bytes.Buffer
	if err := writeResult(&buf, 10, 0, set); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 1 {
		t.Fatalf("result spans %d lines", n)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("keys %v, want %v", keys, want)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(top["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if want := map[string]map[string]any{"latency_ms": {"value": 1.25, "unit": "ms"}}; !reflect.DeepEqual(metrics, want) {
		t.Errorf("metrics %v, want %v", metrics, want)
	}
	if string(top["correct"]) != "true" {
		t.Errorf("correct = %s with no failures", top["correct"])
	}

	buf.Reset()
	writeResult(&buf, 10, 1, set)
	if !bytes.Contains(buf.Bytes(), []byte(`"correct":false`)) {
		t.Errorf("a failed operation left the result correct: %s", buf.Bytes())
	}
}

func TestSelfTime(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }
	spans := []span{
		{ID: 1, Name: "cell", Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Name: "gen", Start: at(2), End: at(4)},
		{ID: 3, Parent: 1, Name: "emit", Start: at(3), End: at(6)},   // overlaps gen
		{ID: 4, Parent: 1, Name: "emit", Start: at(9), End: at(12)},  // runs past its parent
		{ID: 5, Parent: 4, Name: "write", Start: at(9), End: at(10)}, // grandchild
	}
	got := map[string]layerTime{}
	for _, l := range selfTimes(spans) {
		got[l.Name] = l
	}
	ms := time.Millisecond
	if c := got["cell"]; c.Total != 10*ms || c.Self != 5*ms {
		t.Errorf("cell total %v self %v, want 10ms and 5ms", c.Total, c.Self)
	}
	if e := got["emit"]; e.Count != 2 || e.Self != 5*ms {
		t.Errorf("emit count %d self %v, want 2 and 5ms", e.Count, e.Self)
	}

	// Two lanes: 20ms of worker time, and the overlapping children each
	// take their own share of it.
	spans = []span{
		{ID: 1, Name: "stream", Lanes: 2, Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Name: "gen", Start: at(0), End: at(8)},
		{ID: 3, Parent: 1, Name: "gen", Start: at(1), End: at(7)},
		{ID: 4, Parent: 1, Name: "emit", Start: at(8), End: at(12)}, // runs past its parent
	}
	for _, l := range selfTimes(spans) {
		got[l.Name] = l
	}
	if s := got["stream"]; s.Total != 20*ms || s.Self != 4*ms {
		t.Errorf("two-lane stream total %v self %v, want 20ms and 4ms", s.Total, s.Self)
	}
}

// The traced sweep path shares the provider seam, sink seam and tracer
// between cell workers; run under -race it checks their locking, and that
// every provider call and emit hangs under its two-lane stream span.
func TestTracedSweepConcurrent(t *testing.T) {
	cfg := sweep.Config{
		Grids:       []string{"matching-union:n=256,k=8", "double-cover:n=128"},
		Algos:       []string{"greedy", "proposal"},
		Reps:        3,
		Seed:        1,
		CellWorkers: 2,
		CheckBounds: true,
	}
	l := &sweepLoad{passConfigs: func(int) []sweep.Config { return []sweep.Config{cfg} }, topName: "gen"}
	tr := newTracer()
	ph := l.measure(time.Millisecond, tr)
	if ph.failed != 0 || ph.attempted != 12 {
		t.Fatalf("attempted %d, failed %d (%s)", ph.attempted, ph.failed, ph.firstErr)
	}
	counts := map[string]int{}
	streams := map[int64]bool{}
	for _, s := range tr.snapshot() {
		counts[s.Name]++
		if s.Name == "stream" && s.Lanes == 2 {
			streams[s.ID] = true
		}
	}
	for _, s := range tr.snapshot() {
		if (s.Name == "gen" || s.Name == "emit") && !streams[s.Parent] {
			t.Errorf("%s span %d has no two-lane stream parent", s.Name, s.ID)
		}
	}
	if counts["stream"] != 1 || counts["gen"] != 12 || counts["emit"] != 12 {
		t.Errorf("span counts %v, want one stream with 12 gen and 12 emit spans", counts)
	}
	if v, ok := ph.layers.get("gen.builds"); !ok || v != 12 {
		t.Errorf("gen.builds = %v, want 12", v)
	}
	for _, n := range []string{"ops_per_s", "latency_ms"} {
		if _, ok := ph.e2e.get(n); !ok {
			t.Errorf("%s missing from a sweep phase", n)
		}
	}
}

// A short traced serve-mixed phase: concurrent requests through the
// handler and provider seams, checked by the correctness gate.
func TestTracedServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server")
	}
	l := newServeLoad(1, 50*time.Millisecond)
	if err := l.setupOnce(); err != nil {
		t.Fatal(err)
	}
	defer l.close()
	tr := newTracer()
	ph := l.measure(time.Second, tr)
	if ph.failed != 0 || ph.attempted == 0 {
		t.Fatalf("attempted %d, failed %d (%s)", ph.attempted, ph.failed, ph.firstErr)
	}
	linked := 0
	for _, s := range tr.snapshot() {
		if s.Name == "resolve" && s.Parent != 0 {
			linked++
		}
	}
	if linked == 0 {
		t.Error("no resolve span was joined to its handler span")
	}
	if _, ok := ph.layers.get("serve.handler_p50_ms"); !ok {
		t.Error("serve.handler_p50_ms missing from a traced phase")
	}
}
