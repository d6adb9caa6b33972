package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval the traced run recorded at a seam of the program:
// a call into a layer, timed from the benchmark's side of the call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"` // request ID, where one crosses the seam
	Key    string `json:"key,omitempty"` // instance the span worked on, for linking
	// Lanes is how many workers run inside the span at once (0 means
	// one): a sweep.Stream with two cell workers offers two seconds of
	// worker time a second, and its children may overlap.
	Lanes int       `json:"lanes,omitempty"`
	Start time.Time `json:"-"`
	End   time.Time `json:"-"`
}

// tracer keeps spans in memory; they are written out only when the run
// ends, so recording costs an append under a lock and no I/O.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span ID, so a parent can be named before it ends.
func (t *tracer) id() int64 { return t.ids.Add(1) }

// add records a finished span; a zero ID is assigned one.
func (t *tracer) add(s span) {
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTime is one span name's totals: how many spans, their summed
// worker time (duration × lanes), and their summed self time (worker time
// minus the worker time child spans cover).
type layerTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes folds spans into per-name totals, in first-seen order. A
// child's interval is clipped to its parent's. In a one-lane span
// overlapping children are merged; in a span of several lanes they are
// summed, since each ran on a worker of its own. Self time is never
// negative.
func selfTimes(spans []span) []layerTime {
	children := map[int64][][2]time.Time{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Time{s.Start, s.End})
		}
	}
	index := map[string]int{}
	var out []layerTime
	for _, s := range spans {
		i, ok := index[s.Name]
		if !ok {
			i = len(out)
			index[s.Name] = i
			out = append(out, layerTime{Name: s.Name})
		}
		lanes := max(1, s.Lanes)
		d := time.Duration(lanes) * s.End.Sub(s.Start)
		var busy time.Duration
		if lanes == 1 {
			busy = covered(s.Start, s.End, children[s.ID])
		} else {
			busy = min(d, summed(s.Start, s.End, children[s.ID]))
		}
		out[i].Count++
		out[i].Total += d
		out[i].Self += d - busy
	}
	return out
}

// summed is the total length of ivs, each clipped to [lo, hi].
func summed(lo, hi time.Time, ivs [][2]time.Time) time.Duration {
	var total time.Duration
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s.Before(lo) {
			s = lo
		}
		if e.After(hi) {
			e = hi
		}
		if e.After(s) {
			total += e.Sub(s)
		}
	}
	return total
}

// covered is the length of [lo, hi] covered by the union of ivs.
func covered(lo, hi time.Time, ivs [][2]time.Time) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0].Before(ivs[b][0]) })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s.Before(cur) {
			s = cur
		}
		if e.After(hi) {
			e = hi
		}
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return total
}

// printLayers writes the per-span-name table the traced run reports. Each
// self time is shown as a share of all spans' self time, which is the
// worker time the outermost spans cover.
func printLayers(w io.Writer, lts []layerTime) {
	var all time.Duration
	for _, l := range lts {
		all += l.Self
	}
	fmt.Fprintf(w, "  %-10s %8s %12s %12s %18s\n", "span", "count", "total_s", "self_s", "self/all self")
	for _, l := range lts {
		fmt.Fprintf(w, "  %-10s %8d %12.4f %12.4f %9.1f%% of %.2fs\n",
			l.Name, l.Count, l.Total.Seconds(), l.Self.Seconds(),
			100*l.Self.Seconds()/all.Seconds(), all.Seconds())
	}
}

// writeSpans writes the run's host block and every span as JSON lines to
// path, with times in nanoseconds from the tracer's epoch.
func writeSpans(path string, host hostInfo, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"host": host}); err != nil {
		f.Close()
		return err
	}
	type line struct {
		span
		StartNS int64 `json:"start_ns"`
		EndNS   int64 `json:"end_ns"`
	}
	for _, s := range t.snapshot() {
		if err := enc.Encode(line{s, s.Start.Sub(t.epoch).Nanoseconds(), s.End.Sub(t.epoch).Nanoseconds()}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
