package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gen"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// connections is the client's connection and outstanding-request bound:
// the host's two cores, one process of load. openRPS is the open loop's
// fixed absolute rate, under half of what the closed loop completes on a
// 2-core host. closedOutstanding is the closed loop's number of requests
// outstanding: with 2, client and server saturated both cores, and the
// loop's goodput swung by a quarter between runs with whatever else the
// shared host ran; with 1 it reads the cost of a request, not the cores
// left free.
const (
	connections       = 2
	openRPS           = 600
	closedOutstanding = 1
)

// hotFamilies are the hot one-cell sweeps of serve-mixed: every registered
// family at n=1024 (double-cover's n counts one side; caterpillar and
// worstcase are sized by k alone). coldFamilies are the same sized
// families, swept with fresh seeds, except regular: its rejection
// sampling gives up on rare seeds at k=4 too (a defect of the generator,
// see README.md), and a cold request draws a new seed every time.
//
// heavy is the paper's §1.2 lower-bound instance at k=512, on which greedy
// needs exactly 511 rounds: about 11 ms of the same work on every request
// and every seed. At heavyPercent of the traffic it holds the p99 near the
// middle of its own latencies, so the p99 reads fixed engine work instead
// of the host's scheduling stalls of a few milliseconds. It is rare enough
// that two heavy requests seldom queue behind each other.
var (
	hotFamilies = []string{
		"matching-union:n=1024", "bounded-degree:n=1024,k=32", "regular:n=1024",
		"path:n=1024", "cycle:n=1024", "tree:n=1024", "caterpillar", "worstcase",
		"double-cover:n=512",
	}
	coldFamilies = []string{
		"matching-union:n=1024", "bounded-degree:n=1024,k=32",
		"path:n=1024", "cycle:n=1024", "tree:n=1024", "double-cover:n=512",
	}
	heavy = "worstcase:k=512"
)

const (
	writePool    = 64 // distinct graphs the writes cycle through, below the store cap
	storedHot    = 16 // of which the first are stored in set-up and swept hot
	hotPercent   = 80 // of all traffic, the heavy requests included
	heavyPercent = 3  // of all traffic, so 77% are the other hot requests
	coldPercent  = 10 // the rest are writes
)

// serveLoad is mmserve in-process on a loopback listener, driven over HTTP
// by an open loop at a fixed rate and then a closed loop.
type serveLoad struct {
	seed  int64
	limit time.Duration

	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	handler *handlerSeam
	resolve *providerSeam

	hot    []hotReq
	writes []writeReq

	mu        sync.Mutex
	created   [writePool]int // 201 answers per pool graph
	submitted [writePool]bool
}

type hotReq struct {
	body   []byte
	golden []byte    // the response set-up received and checked; later ones must match it
	totals rowTotals // what golden's rows report
	key    string
}

type writeReq struct {
	body []byte
	id   string // the content address the server must answer with
	n, k int
}

// op is one request of the mix.
type op struct {
	kind byte // 'h' hot sweep, 'c' cold sweep, 'w' graph write
	idx  int  // into hot or writes
	body []byte
	key  string // instance key of a sweep, set only when traced
}

func newServeLoad(seed int64, limit time.Duration) *serveLoad {
	return &serveLoad{seed: seed, limit: limit}
}

// setupOnce starts a fresh server, generates the write pool, stores the
// hot graphs and warms every hot request, keeping its response.
func (l *serveLoad) setupOnce() error {
	if err := l.close(); err != nil {
		return err
	}
	l.created, l.submitted = [writePool]int{}, [writePool]bool{}
	l.handler = &handlerSeam{}
	l.srv = serve.NewServer(serve.Options{
		Log: log.New(io.Discard, "", 0),
		WrapProvider: func(p sweep.InstanceProvider) sweep.InstanceProvider {
			l.resolve = newProviderSeam("resolve", p)
			return l.resolve
		},
	})
	l.handler.inner = l.srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	l.base = "http://" + ln.Addr().String()
	l.hs = &http.Server{Handler: l.handler}
	l.served = make(chan error, 1)
	go func() { l.served <- l.hs.Serve(ln) }()
	l.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     connections,
		MaxIdleConnsPerHost: connections,
		DisableCompression:  true,
	}}

	l.writes = l.writes[:0]
	for j := 0; j < writePool; j++ {
		inst, _, err := gen.BuildSpec("matching-union:n=256", gen.SubSeed(l.seed, "write", strconv.Itoa(j)))
		if err != nil {
			return fmt.Errorf("write pool: %w", err)
		}
		g := inst.G
		edges := make([][3]int, 0, g.NumEdges())
		for _, e := range g.Edges() {
			edges = append(edges, [3]int{e.U, e.V, int(e.Color)})
		}
		body, err := json.Marshal(serve.GraphRequest{N: g.N(), K: g.K(), Edges: edges})
		if err != nil {
			return err
		}
		l.writes = append(l.writes, writeReq{body: body, id: gen.EdgeListID(g.N(), g.K(), edges), n: g.N(), k: g.K()})
	}

	// The hot set: every family under greedy and proposal, the double
	// cover under bipartite too, and the stored graphs likewise. The
	// algorithms on one family share its seed, hence one cached instance:
	// 26 instances with the heavy one, well inside the cache's 64 entries,
	// so the cold misses practically never evict a hot one.
	reqs := []serve.SweepRequest{{Grids: []string{heavy}, Algos: []string{"greedy"}, Seed: gen.SubSeed(l.seed, "heavy")}}
	for i, fam := range hotFamilies {
		algos := []string{"greedy", "proposal"}
		if strings.HasPrefix(fam, "double-cover") {
			algos = append(algos, "bipartite")
		}
		for _, a := range algos {
			reqs = append(reqs, serve.SweepRequest{Grids: []string{fam}, Algos: []string{a},
				Seed: gen.SubSeed(l.seed, "hot", strconv.Itoa(i))})
		}
	}
	for j := 0; j < storedHot; j++ {
		if err := l.send(op{kind: 'w', idx: j, body: l.writes[j].body}, 0); err != nil {
			return fmt.Errorf("set-up write %d: %w", j, err)
		}
		for _, a := range []string{"greedy", "proposal"} {
			reqs = append(reqs, serve.SweepRequest{Graphs: []string{l.writes[j].id}, Algos: []string{a},
				Seed: gen.SubSeed(l.seed, "hot-graph", strconv.Itoa(j))})
		}
	}
	l.hot = l.hot[:0]
	for _, r := range reqs {
		r.CheckBounds = true
		body, err := json.Marshal(r)
		if err != nil {
			return err
		}
		key, err := l.sweepKey(r)
		if err != nil {
			return err
		}
		golden, err := l.post("/v1/sweep", body, 0)
		if err != nil {
			return fmt.Errorf("set-up sweep %s: %w", body, err)
		}
		totals, err := checkSweep(golden.body, golden.code)
		if err != nil {
			return fmt.Errorf("set-up sweep %s: %w", body, err)
		}
		l.hot = append(l.hot, hotReq{body: body, key: key, golden: golden.body, totals: totals})
	}
	// Every hot request is asked once more, now from the cache: set-up
	// holds the identical-request contract before anything is measured.
	for i, h := range l.hot {
		if err := l.send(op{kind: 'h', idx: i, body: h.body}, 0); err != nil {
			return fmt.Errorf("set-up sweep %s: %w", h.body, err)
		}
	}
	return nil
}

// sweepKey is the instance key the one-cell sweep r resolves. A stored
// graph's rows carry its shape (n and k) as their parameters.
func (l *serveLoad) sweepKey(r serve.SweepRequest) (string, error) {
	cfg := sweep.Config{Grids: r.Grids, Algos: r.Algos, Seed: r.Seed}
	for _, id := range r.Graphs {
		for _, w := range l.writes {
			if w.id == id {
				cfg.Instances = append(cfg.Instances, sweep.InstanceRef{ID: id, Params: gen.Params{"n": float64(w.n), "k": float64(w.k)}})
			}
		}
	}
	plan, err := sweep.CellPlan(cfg)
	if err != nil {
		return "", err
	}
	return planKey(plan[0]), nil
}

// close stops the server and waits for it; safe to call when none runs.
func (l *serveLoad) close() error {
	if l.hs == nil {
		return nil
	}
	l.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	l.client.CloseIdleConnections()
	if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	l.hs = nil
	return err
}

// op draws request i of the named loop: a pure function of the workload
// seed, the loop name and i, so a run's traffic replays exactly.
func (l *serveLoad) op(loop string, i int, traced bool) (op, error) {
	h := uint64(gen.SubSeed(l.seed, loop, strconv.Itoa(i)))
	switch pick := h % 100; {
	case pick < heavyPercent:
		return op{kind: 'h', idx: 0, body: l.hot[0].body, key: l.hot[0].key}, nil
	case pick < hotPercent:
		j := 1 + int(h>>8)%(len(l.hot)-1)
		return op{kind: 'h', idx: j, body: l.hot[j].body, key: l.hot[j].key}, nil
	case pick < hotPercent+coldPercent:
		r := serve.SweepRequest{
			Grids:       []string{coldFamilies[int(h>>8)%len(coldFamilies)]},
			Algos:       []string{"greedy"},
			Seed:        gen.SubSeed(l.seed, "cold", loop, strconv.Itoa(i)),
			CheckBounds: true,
		}
		body, err := json.Marshal(r)
		if err != nil {
			return op{}, err
		}
		o := op{kind: 'c', body: body}
		if traced {
			if o.key, err = l.sweepKey(r); err != nil {
				return op{}, err
			}
		}
		return o, nil
	default:
		j := int(h>>8) % writePool
		return op{kind: 'w', idx: j, body: l.writes[j].body}, nil
	}
}

type response struct {
	code int
	body []byte
}

func (l *serveLoad) post(path string, body []byte, spanID int64) (response, error) {
	req, err := http.NewRequest(http.MethodPost, l.base+path, bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID != 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return response{code: resp.StatusCode, body: b}, err
}

// rowTotals sums what a sweep response's rows report.
type rowTotals struct {
	rows, rounds, messages, bytes, body int64
}

// send issues o and checks its answer against mmserve's contracts.
func (l *serveLoad) send(o op, spanID int64) error {
	_, err := l.sendTotals(o, spanID)
	return err
}

func (l *serveLoad) sendTotals(o op, spanID int64) (rowTotals, error) {
	if o.kind == 'w' {
		r, err := l.post("/v1/graphs", o.body, spanID)
		if err != nil {
			return rowTotals{}, err
		}
		return rowTotals{}, l.checkWrite(o.idx, r)
	}
	r, err := l.post("/v1/sweep", o.body, spanID)
	if err != nil {
		return rowTotals{}, err
	}
	if o.kind == 'h' {
		// Set-up checked the golden copy, so an identical body needs no
		// second parse.
		if h := l.hot[o.idx]; r.code == http.StatusOK && bytes.Equal(r.body, h.golden) {
			return h.totals, nil
		}
		if _, err := checkSweep(r.body, r.code); err != nil {
			return rowTotals{}, err
		}
		return rowTotals{}, errors.New("hot response is not byte-identical to its set-up copy")
	}
	return checkSweep(r.body, r.code)
}

// checkSweep validates a sweep response: status 200, every row free of
// contract violations, and a done-trailer whose row count matches.
func checkSweep(body []byte, code int) (rowTotals, error) {
	t := rowTotals{body: int64(len(body))}
	if code != http.StatusOK {
		return t, fmt.Errorf("sweep status %d: %.200s", code, body)
	}
	var trailer *serve.SweepTrailer
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		if trailer != nil {
			return t, errors.New("sweep response continues after its trailer")
		}
		var row struct {
			Done       *bool           `json:"done"`
			Error      string          `json:"error"`
			Scenario   string          `json:"scenario"`
			Params     string          `json:"params"`
			Skip       string          `json:"skip"`
			Rounds     int64           `json:"rounds"`
			Messages   int64           `json:"messages"`
			Bytes      int64           `json:"bytes"`
			Violations json.RawMessage `json:"violations"` // a list in rows, a count in the trailer
		}
		if err := json.Unmarshal(line, &row); err != nil {
			return t, fmt.Errorf("bad NDJSON line: %w", err)
		}
		switch {
		case row.Error != "":
			return t, fmt.Errorf("in-band sweep error: %s", row.Error)
		case row.Done != nil:
			trailer = &serve.SweepTrailer{}
			if err := json.Unmarshal(line, trailer); err != nil {
				return t, err
			}
		case row.Skip != "" || len(row.Violations) > 0:
			return t, fmt.Errorf("row %s:%s: skip=%q violations=%s", row.Scenario, row.Params, row.Skip, row.Violations)
		default:
			t.rows++
			t.rounds += row.Rounds
			t.messages += row.Messages
			t.bytes += row.Bytes
		}
	}
	if trailer == nil || !trailer.Done {
		return t, fmt.Errorf("sweep response has no done-trailer (%d rows)", t.rows)
	}
	if int64(trailer.Rows) != t.rows || trailer.Violations != 0 {
		return t, fmt.Errorf("trailer counts %d rows and %d violations, stream delivered %d clean rows",
			trailer.Rows, trailer.Violations, t.rows)
	}
	return t, nil
}

// checkWrite holds a graph submission to the store's contract: the first
// submission of a graph answers 201, every later one 200, always with the
// graph's content address.
func (l *serveLoad) checkWrite(j int, r response) error {
	if r.code != http.StatusCreated && r.code != http.StatusOK {
		return fmt.Errorf("graph write status %d: %.200s", r.code, r.body)
	}
	var g serve.GraphResponse
	if err := json.Unmarshal(r.body, &g); err != nil {
		return fmt.Errorf("graph write answer: %w", err)
	}
	if g.ID != l.writes[j].id {
		return fmt.Errorf("graph write answered address %s, want %s", g.ID, l.writes[j].id)
	}
	if g.Created != (r.code == http.StatusCreated) {
		return fmt.Errorf("graph write status %d with created=%v", r.code, g.Created)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.submitted[j] = true
	if g.Created {
		l.created[j]++
		if l.created[j] > 1 {
			return fmt.Errorf("graph %s created twice", g.ID)
		}
	}
	return nil
}

// uncreated counts graphs that were submitted but never answered 201 —
// only knowable once no write is in flight.
func (l *serveLoad) uncreated() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for j := range l.created {
		if l.submitted[j] && l.created[j] == 0 {
			n++
		}
	}
	return n
}

// loopResult is what one open or closed loop observed.
type loopResult struct {
	lat      []time.Duration // per request, failedLatency when it failed
	at       []time.Duration // closed loop: completion time from the loop's start
	late     []time.Duration // open loop: send time minus due time
	peak     int             // most requests outstanding at once
	wall     time.Duration
	failed   int
	firstErr string
	rows     rowTotals
}

// startClock is a loadgen.Clock that remembers the first reading, which
// the Pacer takes as the schedule's origin.
type startClock struct {
	loadgen.Clock
	once  sync.Once
	start time.Time
}

func (c *startClock) Now() time.Time {
	t := c.Clock.Now()
	c.once.Do(func() { c.start = t })
	return t
}

// pace runs prof through a loadgen.Pacer that queues behind connections
// outstanding requests, and times every request from when it was due, so
// the wait a stall imposes on later requests is counted. do returns the
// request's completion time, or an error.
func pace(prof loadgen.Profile, clock loadgen.Clock, do func(slot int, due, sent time.Time) (time.Time, error)) loopResult {
	clk := &startClock{Clock: clock}
	n := prof.Slots()
	res := loopResult{lat: make([]time.Duration, n), late: make([]time.Duration, n)}
	var (
		inflight atomic.Int64
		mu       sync.Mutex
	)
	p := loadgen.Pacer{Profile: prof, MaxInFlight: connections, Policy: loadgen.Queue, Clock: clk}
	p.Run(context.Background(), func(slot int) {
		due := clk.start.Add(prof.SlotAt(slot))
		sent := clk.Now()
		cur := int(inflight.Add(1))
		done, err := do(slot, due, sent)
		inflight.Add(-1)
		mu.Lock()
		defer mu.Unlock()
		res.peak = max(res.peak, cur)
		res.late[slot] = sent.Sub(due)
		if err != nil {
			res.lat[slot] = failedLatency
			res.failed++
			if res.firstErr == "" {
				res.firstErr = err.Error()
			}
			return
		}
		res.lat[slot] = done.Sub(due)
	})
	res.wall = clk.Now().Sub(clk.start)
	return res
}

// openLoop offers the mix at the fixed rate for d.
func (l *serveLoad) openLoop(loop string, d time.Duration, tr *tracer) loopResult {
	var mu sync.Mutex
	var rows rowTotals
	res := pace(loadgen.Profile{Rate: openRPS, Hold: d}, loadgen.WallClock(),
		func(slot int, due, _ time.Time) (time.Time, error) {
			o, err := l.op(loop, slot, tr != nil)
			if err != nil {
				return time.Time{}, err
			}
			var id int64
			if tr != nil {
				id = tr.id()
			}
			t, err := l.sendTotals(o, id)
			done := time.Now()
			if tr != nil {
				tr.add(span{ID: id, Name: "client", Req: strconv.FormatInt(id, 10), Key: o.key, Start: due, End: done})
			}
			mu.Lock()
			rows.rows += t.rows
			rows.rounds += t.rounds
			rows.messages += t.messages
			rows.bytes += t.bytes
			rows.body += t.body
			mu.Unlock()
			return done, err
		})
	res.rows = rows
	return res
}

// closedLoop keeps closedOutstanding requests outstanding for d, each timed
// from its send.
func (l *serveLoad) closedLoop(loop string, d time.Duration, tr *tracer) loopResult {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		res  loopResult
	)
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < closedOutstanding; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				o, err := l.op(loop, i, tr != nil)
				var id int64
				if err == nil {
					if tr != nil {
						id = tr.id()
					}
					err = l.send(o, id)
				}
				t1 := time.Now()
				if tr != nil {
					tr.add(span{ID: id, Name: "client", Req: strconv.FormatInt(id, 10), Key: o.key, Start: t0, End: t1})
				}
				mu.Lock()
				res.at = append(res.at, t1.Sub(start))
				if err != nil {
					res.lat = append(res.lat, failedLatency)
					res.failed++
					if res.firstErr == "" {
						res.firstErr = err.Error()
					}
				} else {
					res.lat = append(res.lat, t1.Sub(t0))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// scrape reads the server's own sweep telemetry from GET /metrics.
func (l *serveLoad) scrape() (*obs.Snapshot, error) {
	resp, err := l.client.Get(l.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics status %d", resp.StatusCode)
	}
	return obs.ParsePrometheus(resp.Body)
}

// openShare is the open loop's share of a run's measured time; the closed
// loop gets the rest. Each loop is cut into windows whose median is
// reported. An open-loop window is windowRequests requests, so each
// window's p99 has 15 samples beyond it. A closed-loop window holds about
// 1500 requests, among them ~45 of the heavy ones that take a third of
// its time, so the heavy share varies little from window to window.
const (
	openShare      = 0.5
	windowRequests = 1500
	closedWindow   = time.Second
)

// measure runs the open loop at the fixed rate, then the closed loop.
func (l *serveLoad) measure(d time.Duration, tr *tracer) phase {
	name := "untraced"
	if tr != nil {
		name = "traced"
	}
	openD := time.Duration(float64(d) * openShare)
	var before *obs.Snapshot
	var cacheBase sweep.CacheStats
	var proc *procSampler
	ph := phase{e2e: newMetricSet()}
	if tr != nil {
		var err error
		if before, err = l.scrape(); err != nil {
			ph.failed, ph.attempted, ph.firstErr = 1, 1, err.Error()
			return ph
		}
		cacheBase = l.srv.CacheStats()
		l.resolve.drain()
		l.handler.trace(tr)
		l.resolve.trace(tr, 0)
		proc = startProc()
	}
	open := l.openLoop("open-"+name, openD, tr)
	var (
		ps       procStats
		hs       handlerStats
		rs       providerStats
		spans    []span
		after    *obs.Snapshot
		cacheEnd sweep.CacheStats
	)
	if tr != nil {
		ps = proc.end()
		l.handler.trace(nil)
		l.resolve.trace(nil, 0)
		hs, rs = l.handler.drain(), l.resolve.drain()
		cacheEnd = l.srv.CacheStats()
		spans = linkResolves(tr)
		var err error
		if after, err = l.scrape(); err != nil {
			open.failed++
			open.firstErr = err.Error()
		}
		l.handler.trace(tr)
		l.resolve.trace(tr, 0)
	}
	closed := l.closedLoop("closed-"+name, d-openD, tr)
	if tr != nil {
		l.handler.trace(nil)
		l.resolve.trace(nil, 0)
	}

	ph.wall = open.wall + closed.wall
	ph.attempted = int64(len(open.lat) + len(closed.lat))
	ph.failed = int64(open.failed + closed.failed + l.uncreated())
	ph.firstErr = open.firstErr
	if ph.firstErr == "" {
		ph.firstErr = closed.firstErr
	}
	lat := make([]float64, len(open.lat))
	for i, d := range open.lat {
		lat[i] = ms(d)
	}
	// latency_ms is the open loop's p50. p99_ms is printed with every run
	// but gated by none: on a shared 2-core VM it spread by 28-39% of its
	// median between runs, against 6-8% for the p50. The traced half also
	// lists it in its layer table.
	var p99 float64
	for _, q := range []struct {
		name string
		q    float64
	}{{"latency_ms", 0.5}, {"p99_ms", 0.99}} {
		v, windows, err := windowedPercentile(lat, windowRequests, q.q)
		pooled, perr := percentile(lat, q.q)
		if perr == nil {
			fmt.Printf("  %s (%s, open loop at %g/s): pooled %s\n", q.name, name, float64(openRPS), pooled)
		}
		if err != nil {
			fmt.Printf("  %s (%s): %v\n", q.name, name, err)
			continue
		}
		fmt.Printf("  %s (%s): median of %d windows of %d requests = %.4g %s\n", q.name, name, len(windows), windowRequests, v, fmtWindows(windows))
		if q.q == 0.5 {
			ph.e2e.add(q.name, "ms", v)
		} else {
			p99 = v
		}
	}
	p50, _ := percentile(lat, 0.5)
	maxRPS, windows := windowedGoodput(closed.lat, closed.at, l.limit, closedWindow, closed.wall)
	fmt.Printf("  ops_per_s (%s, closed loop, %d outstanding): %d requests in %.2fs, median of %d windows of %v within %v %s\n",
		name, closedOutstanding, len(closed.lat), closed.wall.Seconds(), len(windows), closedWindow, l.limit, fmtWindows(windows))
	ph.e2e.add("ops_per_s", "1/s", maxRPS)
	if tr == nil {
		return ph
	}

	ph.spans = selfTimes(spans)
	ls := newMetricSet()
	ph.layers = ls
	if p99 > 0 {
		ls.add("p99_ms", "ms", p99)
	}
	ls.add("gen.builds", "count", float64(rs.Misses))
	ls.add("gen.build_s", "s", rs.MissBusy.Seconds())
	ls.add("gen.edges_per_s", "1/s", float64(rs.MissEdges)/rs.MissBusy.Seconds())
	hits, misses := cacheEnd.Hits-cacheBase.Hits, cacheEnd.Misses-cacheBase.Misses
	fmt.Printf("  cache.hit_ratio = %d hits / %d lookups\n", hits, hits+misses)
	ls.add("cache.hits", "count", float64(hits))
	ls.add("cache.misses", "count", float64(misses))
	ls.add("cache.hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	addDurQuantile(ls, "cache.resolve_p50_us", 0.5, "us", time.Microsecond, rs.Durs)
	addDurQuantile(ls, "cache.resolve_p99_us", 0.99, "us", time.Microsecond, rs.Durs)

	delta := func(name string) float64 {
		a, _ := after.Value(name)
		b, _ := before.Value(name)
		return a - b
	}
	histSum := func(name string) float64 {
		a, okA := after.Histogram(name)
		b, okB := before.Histogram(name)
		if !okA || !okB {
			return 0
		}
		return a.Sum - b.Sum
	}
	var runS, emitS float64
	if after != nil {
		runS, emitS = histSum("sweep_run_seconds"), histSum("sweep_emit_seconds")
		ls.add("runtime.run_s", "s", runS)
	}
	rows := open.rows
	ls.add("runtime.rounds", "count", float64(rows.rounds))
	ls.add("runtime.messages", "count", float64(rows.messages))
	ls.add("runtime.wire_mb", "MB", float64(rows.bytes)/1e6)
	if after != nil {
		ls.add("runtime.round_us", "us", runS/float64(rows.rounds)*1e6)
		ls.add("runtime.msgs_per_s", "1/s", float64(rows.messages)/runS)
		ls.add("sweep.cells", "count", delta("sweep_rows_total"))
		ls.add("sweep.emit_s", "s", emitS)
	}
	ls.add("sweep.rows_mb", "MB", float64(rows.body)/1e6)
	if after != nil {
		peak, _ := after.Value("sweep_reorder_buffered_peak")
		ls.add("sweep.peak_buffered", "count", peak)
		ls.add("sweep.violations", "count", delta("sweep_violations_total"))
	}

	var handlerSelf time.Duration
	for _, lt := range ph.spans {
		if lt.Name == "handler" {
			handlerSelf = lt.Self
		}
	}
	addDurQuantile(ls, "serve.handler_p50_ms", 0.5, "ms", time.Millisecond, hs.Sweeps)
	addDurQuantile(ls, "serve.handler_p99_ms", 0.99, "ms", time.Millisecond, hs.Sweeps)
	addDurQuantile(ls, "serve.write_p50_ms", 0.5, "ms", time.Millisecond, hs.Writes)
	ls.add("serve.refused", "count", float64(hs.Refused))
	if h50, ok := ls.get("serve.handler_p50_ms"); ok {
		ls.add("serve.residual_p50_ms", "ms", p50.Value-h50)
		fmt.Printf("  client p50 %.4g ms = serve.handler_p50_ms %.4g + serve.residual_p50_ms %.4g (%.0f%% of it in the handler)\n",
			p50.Value, h50, p50.Value-h50, 100*h50/p50.Value)
	}
	if after != nil {
		// Handler time not spent resolving instances, running engines or
		// emitting rows: HTTP decoding, JSON, sweep start-up, checks. The
		// sweep driver runs inside the handler and no seam splits the
		// two, so its own time is counted here and sweep.self_s reads 0.
		ls.add("serve.self_s", "s", handlerSelf.Seconds()-runS-emitS)
		ls.add("sweep.self_s", "s", 0)
	}

	ls.add("loadgen.sent", "count", float64(len(open.lat)))
	addDurQuantile(ls, "loadgen.late_p99_ms", 0.99, "ms", time.Millisecond, open.late)
	ls.add("loadgen.inflight_peak", "count", float64(open.peak))
	ps.add(ls)
	return ph
}

// linkResolves gives every resolve span its parent: the handler span of a
// request for the same instance whose interval contains it. The handler
// span's own parent, the client span, names the instance.
func linkResolves(tr *tracer) []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	keyOf := map[int64]string{}
	for _, s := range tr.spans {
		if s.Name == "client" {
			keyOf[s.ID] = s.Key
		}
	}
	handlers := map[string][]int{}
	for i, s := range tr.spans {
		if s.Name == "handler" {
			k := keyOf[s.Parent]
			tr.spans[i].Key = k
			handlers[k] = append(handlers[k], i)
		}
	}
	for i, s := range tr.spans {
		if s.Name != "resolve" || s.Parent != 0 {
			continue
		}
		for _, j := range handlers[s.Key] {
			h := tr.spans[j]
			if !h.Start.After(s.Start) && !h.End.Before(s.End) {
				tr.spans[i].Parent = h.ID
				break
			}
		}
	}
	return append([]span(nil), tr.spans...)
}
