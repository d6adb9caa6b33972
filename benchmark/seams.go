package main

import (
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/sweep"
)

// The program is measured only from outside, by wrapping the public seams
// it already exposes: sweep.InstanceProvider, sweep.Sink and http.Handler.
// Every wrapper passes calls through unchanged. With no tracer attached
// the provider and sink wrappers only count, and the handler wrapper does
// nothing at all.

// instanceKey names the instance a cell works on: the same string from an
// InstanceSpec, a sweep row or a planned cell, so spans recorded at
// different seams can be joined.
func instanceKey(scenario, params string, seed int64) string {
	return scenario + ":" + params + "@" + strconv.FormatInt(seed, 10)
}

func specKey(s sweep.InstanceSpec) string { return instanceKey(s.Scenario, s.Params.String(), s.Seed) }

func rowKey(r *sweep.Result) string { return instanceKey(r.Scenario, r.Params, r.Seed) }

// planKey is the instance key of a planned cell (sweep.CellPlan), whose ID
// is "scenario:params/algo/repN".
func planKey(c sweep.CellInfo) string {
	scenarioParams, _, _ := strings.Cut(c.ID, "/")
	return scenarioParams + "@" + strconv.FormatInt(c.Seed, 10)
}

// providerStats is what a providerSeam saw since it was last drained.
type providerStats struct {
	Calls int
	Busy  time.Duration
	Edges int64
	// Misses and MissBusy count calls on keys the seam had not seen
	// before: over a cache, these are the calls that built.
	Misses    int
	MissBusy  time.Duration
	MissEdges int64
	// Durs holds every call's duration, kept only while traced.
	Durs []time.Duration
}

// providerSeam times calls through an InstanceProvider. Over the registry
// it measures instance construction (gen and graph.CSRBuilder); over a
// CachingProvider it measures resolution.
type providerSeam struct {
	name  string // span name
	inner sweep.InstanceProvider

	mu     sync.Mutex
	tr     *tracer
	parent int64 // span ID the calls' spans hang under; 0 for none
	seen   map[string]bool
	stats  providerStats
}

func newProviderSeam(name string, inner sweep.InstanceProvider) *providerSeam {
	return &providerSeam{name: name, inner: inner, seen: map[string]bool{}}
}

// trace attaches (or, with nil, detaches) a tracer, and names the parent
// of the spans it records.
func (p *providerSeam) trace(tr *tracer, parent int64) {
	p.mu.Lock()
	p.tr, p.parent = tr, parent
	p.mu.Unlock()
}

// drain returns the stats gathered since the last drain and resets them.
func (p *providerSeam) drain() providerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	p.stats = providerStats{}
	return s
}

// Instance implements sweep.InstanceProvider.
func (p *providerSeam) Instance(spec sweep.InstanceSpec) (*gen.Instance, error) {
	key := specKey(spec)
	p.mu.Lock()
	tr, parent := p.tr, p.parent
	p.mu.Unlock()
	t0 := time.Now()
	inst, err := p.inner.Instance(spec)
	t1 := time.Now()
	d := t1.Sub(t0)

	p.mu.Lock()
	p.stats.Calls++
	p.stats.Busy += d
	var edges int64
	if err == nil {
		edges = int64(inst.G.NumEdges())
	}
	p.stats.Edges += edges
	if !p.seen[key] {
		p.seen[key] = true
		p.stats.Misses++
		p.stats.MissBusy += d
		p.stats.MissEdges += edges
	}
	if tr != nil {
		p.stats.Durs = append(p.stats.Durs, d)
	}
	p.mu.Unlock()
	if tr != nil {
		tr.add(span{Name: p.name, Parent: parent, Key: key, Start: t0, End: t1})
	}
	return inst, err
}

// sinkSeam times row emission and checks every row. Stream calls Emit one
// row at a time, so it needs no lock.
type sinkSeam struct {
	inner  sweep.Sink
	tr     *tracer
	parent int64 // span ID the emit spans hang under

	rows, bad                   int64
	rounds, messages, wireBytes int64
	firstBad                    string
}

// Emit implements sweep.Sink. A skipped cell or a row with contract
// violations is a failed operation; the row is still forwarded.
func (s *sinkSeam) Emit(r *sweep.Result) error {
	var t0 time.Time
	if s.tr != nil {
		t0 = time.Now()
	}
	err := s.inner.Emit(r)
	if s.tr != nil {
		s.tr.add(span{Name: "emit", Parent: s.parent, Key: rowKey(r), Start: t0, End: time.Now()})
	}
	s.rows++
	s.rounds += int64(r.Rounds)
	s.messages += int64(r.Messages)
	s.wireBytes += int64(r.Bytes)
	if r.Skip != "" || len(r.Violations) > 0 {
		s.bad++
		if s.firstBad == "" {
			s.firstBad = r.ID() + ": skip=" + r.Skip
			if len(r.Violations) > 0 {
				s.firstBad = r.ID() + ": " + r.Violations[0].String()
			}
		}
	}
	return err
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// reqHeader carries the client span's ID to the handler seam. Only the
// benchmark sets or reads it; the server ignores unknown headers.
const reqHeader = "X-Bench-Span"

// handlerStats is what a handlerSeam saw since it was last drained.
type handlerStats struct {
	Sweeps, Writes []time.Duration // handler time to last byte, per route
	Refused        int             // 503 answers
}

// handlerSeam times every request through the server's http.Handler, from
// entry to the return that follows the last byte written. It records only
// while a tracer is attached.
type handlerSeam struct {
	inner http.Handler

	mu    sync.Mutex
	tr    *tracer
	stats handlerStats
}

func (h *handlerSeam) trace(tr *tracer) {
	h.mu.Lock()
	h.tr = tr
	h.mu.Unlock()
}

func (h *handlerSeam) drain() handlerStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.stats
	h.stats = handlerStats{}
	return s
}

func (h *handlerSeam) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	tr := h.tr
	h.mu.Unlock()
	if tr == nil {
		h.inner.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	t0 := time.Now()
	h.inner.ServeHTTP(sw, r)
	t1 := time.Now()
	parent, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	tr.add(span{Name: "handler", Parent: parent, Req: r.Header.Get(reqHeader), Start: t0, End: t1})
	h.mu.Lock()
	switch r.URL.Path {
	case "/v1/sweep":
		h.stats.Sweeps = append(h.stats.Sweeps, t1.Sub(t0))
	case "/v1/graphs":
		h.stats.Writes = append(h.stats.Writes, t1.Sub(t0))
	}
	if sw.code == http.StatusServiceUnavailable {
		h.stats.Refused++
	}
	h.mu.Unlock()
}

// statusWriter records the status code. Unwrap keeps the server's
// per-row flushes (http.ResponseController) reaching the connection.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// procStats are the Go runtime's own counters over one phase.
type procStats struct {
	GCCycles  uint32
	GCPauseMS float64
	HeapPeak  float64 // MB of live heap objects, sampled
}

// procSampler reads runtime counters at the start and end of a phase and
// samples the heap in between.
type procSampler struct {
	start runtime.MemStats
	stop  chan struct{}
	done  chan struct{}
	peak  uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startProc() *procSampler {
	p := &procSampler{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&p.start)
	go func() {
		defer close(p.done)
		s := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > p.peak {
				p.peak = v
			}
			select {
			case <-t.C:
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

// end stops the sampler and returns the phase's counters.
func (p *procSampler) end() procStats {
	close(p.stop)
	<-p.done
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procStats{
		GCCycles:  m.NumGC - p.start.NumGC,
		GCPauseMS: float64(m.PauseTotalNs-p.start.PauseTotalNs) / 1e6,
		HeapPeak:  float64(p.peak) / 1e6,
	}
}

func (p procStats) add(s *metricSet) {
	s.add("proc.gc_cycles", "count", float64(p.GCCycles))
	s.add("proc.gc_pause_ms", "ms", p.GCPauseMS)
	s.add("proc.heap_peak_mb", "MB", p.HeapPeak)
}
