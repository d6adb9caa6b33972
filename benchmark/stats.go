package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a p99 never rests on one or two
// unlucky requests.
const minBeyond = 10

// quantile is one percentile of a sample set together with the counts the
// percentile rule is judged on.
type quantile struct {
	Q      float64
	Value  float64 // +Inf when the rank falls on a failed operation
	N      int     // samples
	Beyond int     // samples ranked strictly above the percentile
}

// String renders the quantile with its sample counts, as every printed
// percentile must carry them.
func (q quantile) String() string {
	return fmt.Sprintf("p%g=%.4g (n=%d, beyond=%d)", q.Q*100, q.Value, q.N, q.Beyond)
}

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule, refusing it when fewer than minBeyond samples lie
// beyond its rank. Failed operations enter as +Inf, so a tail made of
// failures reads +Inf instead of hiding them.
func percentile(samples []float64, q float64) (quantile, error) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	r := quantile{Q: q, N: n, Beyond: n - rank}
	if n == 0 || r.Beyond < minBeyond {
		return r, fmt.Errorf("p%g refused: n=%d, %d beyond (need %d)", q*100, n, r.Beyond, minBeyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	r.Value = sorted[rank-1]
	return r, nil
}

// median is the middle value of a small set of repeated timings (the
// set-up repetitions); it needs no percentile rule.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// windowedPercentile splits samples into consecutive windows of per
// samples, takes the q-quantile of every full window under the percentile
// rule, and returns the median of those. A run's tail is then what a
// typical window shows, and one burst of host noise moves one window, not
// the result. It fails when no full window passes the rule.
func windowedPercentile(samples []float64, per int, q float64) (float64, []float64, error) {
	var perWindow []float64
	var lastErr error
	for lo := 0; per > 0 && lo+per <= len(samples); lo += per {
		r, err := percentile(samples[lo:lo+per], q)
		if err != nil {
			lastErr = err
			continue
		}
		perWindow = append(perWindow, r.Value)
	}
	if len(perWindow) == 0 {
		if lastErr == nil {
			lastErr = fmt.Errorf("no full window of %d samples in %d", per, len(samples))
		}
		return 0, nil, lastErr
	}
	return median(perWindow), perWindow, nil
}

// printShare prints a ratio together with its base.
func printShare(name string, part, whole float64) {
	fmt.Printf("  %-14s %10.4gs of %10.4gs = %5.1f%%\n", name, part, whole, 100*part/whole)
}

// fmtWindows renders per-window values for the human-readable output.
func fmtWindows(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// windowedGoodput is the median, over the full windows of length w, of the
// completions per second that finished within limit. at is each request's
// completion time from the start of the loop. Failed requests carry
// failedLatency and never count.
func windowedGoodput(lat, at []time.Duration, limit, w, elapsed time.Duration) (float64, []float64) {
	n := int(elapsed / w)
	if n == 0 {
		return math.NaN(), nil
	}
	good := make([]float64, n)
	for i, l := range lat {
		if k := int(at[i] / w); k < n && l <= limit {
			good[k]++
		}
	}
	for k := range good {
		good[k] /= w.Seconds()
	}
	return median(good), good
}

// failedLatency is how a failed or refused request enters latency samples.
const failedLatency = time.Duration(math.MaxInt64)

// ms converts a latency to milliseconds, mapping failedLatency to +Inf.
func ms(d time.Duration) float64 {
	if d == failedLatency {
		return math.Inf(1)
	}
	return float64(d) / float64(time.Millisecond)
}

// metricName is the shape every metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is an ordered set of metrics: ordered so the printed table
// reads in the order the layers were measured.
type metricSet struct {
	names []string
	m     map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

// add records a metric. A value that is not a finite number has no meaning
// for the run and is omitted, never reported as zero; a malformed or
// repeated name is a bug in the benchmark.
func (s *metricSet) add(name, unit string, v float64) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("metric name %q is not [A-Za-z0-9_.-]", name))
	}
	if _, dup := s.m[name]; dup {
		panic(fmt.Sprintf("metric %q reported twice", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	s.names = append(s.names, name)
	s.m[name] = metric{Value: v, Unit: unit}
}

// get returns a recorded metric's value.
func (s *metricSet) get(name string) (float64, bool) {
	m, ok := s.m[name]
	return m.Value, ok
}

// only returns the subset of s named by specs, and the names s lacks.
func (s *metricSet) only(specs []metricSpec) (*metricSet, []string) {
	sub := newMetricSet()
	var missing []string
	for _, m := range specs {
		v, ok := s.get(m.name)
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		if u := s.m[m.name].Unit; u != m.unit {
			panic(fmt.Sprintf("metric %q measured in %s, reported in %s", m.name, u, m.unit))
		}
		sub.add(m.name, m.unit, v)
	}
	return sub, missing
}

// print writes the set as an aligned name/value/unit table.
func (s *metricSet) print(w io.Writer, indent string) {
	for _, n := range s.names {
		fmt.Fprintf(w, "%s%-26s %14.6g %s\n", indent, n, s.m[n].Value, s.m[n].Unit)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// writeResult prints the result as one JSON line.
func writeResult(w io.Writer, attempted, failed int64, set *metricSet) error {
	b, err := json.Marshal(result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   set.m,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
