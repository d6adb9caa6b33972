package runtime

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/graph"
	"repro/internal/mm"
)

// Run executes the protocol on g and returns every node's output. labels
// may be nil; otherwise it holds one input per node (§1.1's "2-coloured
// graphs" provide the bipartition this way). A run still going after
// maxRounds rounds is an error.
//
// Every round runs the same two phase functions, sendRange and recvRange,
// over the live window of the bitset frontier. workers ≤ 1 calls them
// inline on the calling goroutine: that is the sequential engine, with no
// goroutine, barrier or claim cursor. workers > 1 (capped at n) runs them
// from that many goroutines, which claim frontier chunks by work stealing
// between two round barriers. The result is independent of the worker
// count and of the claim schedule (see steal.go and doc.go for the
// determinism argument).
func Run(g *graph.Graph, labels []int, src Source, maxRounds, workers int) ([]mm.Output, *Stats, error) {
	if err := checkLabels(g, labels); err != nil {
		return nil, nil, err
	}
	n := g.N()
	if n == 0 {
		return []mm.Output{}, &Stats{HaltTimes: []int{}}, nil
	}
	workers = max(1, min(workers, n))
	g.Flatten()
	st := workersStatePool.Get().(*workersState)
	defer st.release()
	st.fit(n, len(g.Halves()), workers, g.K())
	st.start(g, labels, src)
	if workers == 1 {
		st.runInline(maxRounds)
	} else {
		st.runParallel(maxRounds)
	}
	if st.alive > 0 {
		return nil, nil, fmt.Errorf("runtime: no termination within %d rounds", maxRounds)
	}

	stats := &Stats{HaltTimes: st.haltTimes, Rounds: len(st.perRound)}
	if len(st.perRound) > 0 {
		stats.PerRound = append([]RoundTraffic(nil), st.perRound...)
		for _, t := range stats.PerRound {
			stats.Messages += t.Messages
		}
	}
	outs := make([]mm.Output, n)
	for v, m := range st.machines {
		outs[v] = m.Output()
	}
	return outs, stats, nil
}

// workersState holds the scratch of one Run call. Pooling it across calls
// keeps the engine's steady-state allocation footprint at the outputs and
// statistics it returns, which matters when experiments run thousands of
// executions back to back.
type workersState struct {
	// The current run's machines, graph arrays and halt times; release
	// drops them so a pooled state does not pin a finished run.
	machines  []Machine
	halves    []graph.Half
	mates     []int
	haltTimes []int
	// factoryMachines backs machines for plain Factory sources, so neither
	// they nor pooling sources box machines per run.
	factoryMachines []Machine
	// offsets[v]…offsets[v+1] is node v's range in halves.
	offsets []int
	// slab[i] is the message in flight on directed edge i (= halves[i]),
	// written by the sender and consumed (re-nilled) by the reader. Slots
	// whose reader has halted may keep a stale message; a halted reader
	// never reads again, so they are harmless.
	slab []Message
	// cur/next are the double-buffered frontier word arrays (bit v of word
	// v>>6 is set while node v runs); fit zeroes them on every reuse (a run
	// that hit maxRounds leaves bits behind, and stale liveness must never
	// leak across runs).
	cur, next []uint64
	// scanLo/scanHi bound the frontier's nonzero words. Liveness only
	// shrinks, so each round re-derives the window from the words it wrote
	// and a clustered tail stops paying for the whole array.
	scanLo, scanHi int
	alive          int
	// perRound is the run's traffic histogram; it keeps its capacity
	// across runs, and Run copies it out once.
	perRound []RoundTraffic
	workers  int
	ws       []workerScratch
	// Phase-claim cursors of the parallel path, reset by fit (a run that
	// stopped at maxRounds leaves them mid-range) and by endRound.
	sendCursor, recvCursor atomicCursor
}

// workerScratch is one worker's share of workersState.
type workerScratch struct {
	arena RoundArena
	// out/in are the colour-indexed message buffers (length k+1, all-nil
	// between nodes).
	out, in []Message
	// The worker's receive-phase tallies for the current round: delivered
	// traffic, nodes halted, and the bounds [lo, hi) of the nonzero
	// next-frontier words it wrote. endRound merges and resets them.
	traffic RoundTraffic
	halted  int
	lo, hi  int
}

var workersStatePool = sync.Pool{New: func() any { return &workersState{} }}

// fit resizes the scratch for n nodes, h directed edges, the given worker
// count and palette k. Offsets and machine entries are fully overwritten
// by start; the slab must be all-nil, the frontier words all-zero, and the
// message buffers all-nil, and a previous run can leave stale state in any
// of them (a halted reader strands its slab slot, a run stopped at
// maxRounds abandons its frontier), so all three are cleared here rather
// than trusted. Arenas keep their slabs across runs, which is the point of
// pooling them, because payload contents carry no cross-run meaning.
func (st *workersState) fit(n, h, workers, k int) {
	if cap(st.offsets) < n+1 {
		st.offsets = make([]int, n+1)
	}
	st.offsets = st.offsets[:n+1]
	words := frontierWords(n)
	if cap(st.cur) < words {
		st.cur = make([]uint64, words)
		st.next = make([]uint64, words)
	} else {
		st.cur = st.cur[:words]
		st.next = st.next[:words]
		clear(st.cur)
		clear(st.next)
	}
	if cap(st.slab) < h {
		st.slab = make([]Message, h)
	} else {
		st.slab = st.slab[:h]
		clear(st.slab)
	}
	if len(st.ws) < workers {
		ws := make([]workerScratch, workers)
		copy(ws, st.ws) // keep already-grown arenas and buffers
		st.ws = ws
	}
	for w := range st.ws[:workers] {
		ws := &st.ws[w]
		if cap(ws.out) < k+1 {
			ws.out = make([]Message, k+1)
			ws.in = make([]Message, k+1)
		} else {
			ws.out = ws.out[:k+1]
			ws.in = ws.in[:k+1]
			clear(ws.out)
			clear(ws.in)
		}
		ws.traffic, ws.halted, ws.lo, ws.hi = RoundTraffic{}, 0, words, 0
	}
	st.workers = workers
	st.perRound = st.perRound[:0]
	st.sendCursor.Store(0)
	st.recvCursor.Store(0)
}

// start creates and initialises the machines in node order, so stateful
// sources behave identically at every worker count, and sets round 1's
// frontier bits and live window.
func (st *workersState) start(g *graph.Graph, labels []int, src Source) {
	n := g.N()
	if f, ok := src.(Factory); ok {
		if cap(st.factoryMachines) < n {
			st.factoryMachines = make([]Machine, n)
		}
		st.machines = st.factoryMachines[:n]
		for v := range st.machines {
			st.machines[v] = f()
		}
	} else {
		st.machines = src.NewPool(n)
	}
	st.halves, st.mates = g.Halves(), g.Mates()
	st.haltTimes = make([]int, n)
	st.scanLo, st.scanHi, st.alive = len(st.cur), 0, 0
	k := g.K()
	for v, m := range st.machines {
		_, st.offsets[v+1] = g.HalfRange(v)
		m.Init(NodeInfo{K: k, Colors: g.IncidentColors(v), Label: labelOf(labels, v)})
		if !m.Halted() {
			frontierSet(st.cur, v)
			st.scanLo = min(st.scanLo, v>>6)
			st.scanHi = v>>6 + 1
			st.alive++
		}
	}
}

// release returns the state to the pool without the run's machines, graph
// arrays and halt times.
func (st *workersState) release() {
	clear(st.factoryMachines)
	st.machines, st.halves, st.mates, st.haltTimes = nil, nil, nil, nil
	workersStatePool.Put(st)
}

// runInline is the sequential engine: both phases over the whole live
// window, round after round, on the calling goroutine.
func (st *workersState) runInline(maxRounds int) {
	ws := &st.ws[0]
	for round := 1; st.alive > 0 && round <= maxRounds; round++ {
		// The previous round's receives are done, so arena payloads are
		// no longer referenced and the slabs can be recycled.
		ws.arena.Reset()
		st.sendRange(st.cur, st.scanLo, st.scanHi, ws)
		st.recvRange(st.cur, st.next, st.scanLo, st.scanHi, round, ws)
		st.endRound()
		st.cur, st.next = st.next, st.cur
	}
}

// runParallel runs the same rounds from st.workers goroutines. Each phase
// is a claim loop over frontier chunks; a barrier separates the send phase
// from the receive phase, and a second one ends the round, with its last
// arriver running endRound under the barrier lock. Everything endRound
// writes (live count, live window, histogram, cursors) is read only after
// the barrier releases, so the barrier's mutex orders the round handoff.
func (st *workersState) runParallel(maxRounds int) {
	chunkWords := chunkWordsFor(len(st.cur), st.workers)
	bar := newBarrier(st.workers)
	endRound := st.endRound
	var wg sync.WaitGroup
	wg.Add(st.workers)
	for w := range st.ws[:st.workers] {
		go func(ws *workerScratch) {
			defer wg.Done()
			// Each worker swaps its own view of the double buffer at the
			// end-of-round barrier, so the swap must be goroutine-local.
			cur, next := st.cur, st.next
			for round := 1; st.alive > 0 && round <= maxRounds; round++ {
				ws.arena.Reset()
				base, limit := st.scanLo, st.scanHi
				for {
					lo, hi, ok := claimChunk(&st.sendCursor, base, limit, chunkWords)
					if !ok {
						break
					}
					st.sendRange(cur, lo, hi, ws)
				}
				bar.wait(nil)
				for {
					lo, hi, ok := claimChunk(&st.recvCursor, base, limit, chunkWords)
					if !ok {
						break
					}
					st.recvRange(cur, next, lo, hi, round, ws)
				}
				bar.wait(endRound)
				cur, next = next, cur
			}
		}(&st.ws[w])
	}
	wg.Wait()
}

// sendRange runs the send phase of the live nodes in frontier words
// [wlo, whi): each machine writes its messages into ws.out, and they move
// into the slab slots of the node's own outgoing halves. Those slots are
// fixed by the graph, so which worker sends a node cannot change what any
// slot holds.
func (st *workersState) sendRange(cur []uint64, wlo, whi int, ws *workerScratch) {
	machines, offsets, halves, slab := st.machines, st.offsets, st.halves, st.slab
	out, arena := ws.out, &ws.arena
	for wi := wlo; wi < whi; wi++ {
		for word := cur[wi]; word != 0; word &= word - 1 {
			v := wi<<6 + bits.TrailingZeros64(word)
			machines[v].Send(out, arena)
			for i := offsets[v]; i < offsets[v+1]; i++ {
				if msg := out[halves[i].Color]; msg != nil {
					slab[i] = msg
					out[halves[i].Color] = nil
				}
			}
		}
	}
}

// recvRange runs the receive phase of the live nodes in frontier words
// [wlo, whi): it gathers each node's incoming slots into ws.in, clears the
// consumed slots, delivers, and writes the words of the next frontier with
// the freshly halted bits dropped by one AND-NOT each. The caller owns
// these words exclusively, and with them the nodes' halt times; the
// round's traffic, halt count and live-word bounds go to ws's tallies.
func (st *workersState) recvRange(cur, next []uint64, wlo, whi, round int, ws *workerScratch) {
	machines, offsets, halves, mates, slab := st.machines, st.offsets, st.halves, st.mates, st.slab
	haltTimes, in := st.haltTimes, ws.in
	rt, halted, lo, hi := ws.traffic, ws.halted, ws.lo, ws.hi
	for wi := wlo; wi < whi; wi++ {
		lw := cur[wi]
		for bw := lw; bw != 0; bw &= bw - 1 {
			t := bits.TrailingZeros64(bw)
			v := wi<<6 + t
			vlo, vhi := offsets[v], offsets[v+1]
			got := 0
			for i := vlo; i < vhi; i++ {
				if msg := slab[mates[i]]; msg != nil {
					in[halves[i].Color] = msg
					slab[mates[i]] = nil
					got++
					rt.Bytes += messageBytes(msg)
				}
			}
			rt.Messages += got
			m := machines[v]
			m.Receive(in)
			if got > 0 {
				for i := vlo; i < vhi; i++ {
					in[halves[i].Color] = nil
				}
			}
			if m.Halted() {
				lw &^= 1 << uint(t)
				haltTimes[v] = round
				halted++
			}
		}
		next[wi] = lw
		if lw != 0 {
			lo, hi = min(lo, wi), max(hi, wi+1)
		}
	}
	ws.traffic, ws.halted, ws.lo, ws.hi = rt, halted, lo, hi
}

// endRound merges the workers' receive-phase tallies into the round's
// histogram row, live count and next live window, resets the tallies and
// rewinds the claim cursors. The parallel path runs it in the last worker
// to reach the end-of-round barrier, under the barrier lock.
func (st *workersState) endRound() {
	var rt RoundTraffic
	lo, hi := len(st.cur), 0
	for w := range st.ws[:st.workers] {
		ws := &st.ws[w]
		rt.Messages += ws.traffic.Messages
		rt.Bytes += ws.traffic.Bytes
		st.alive -= ws.halted
		lo, hi = min(lo, ws.lo), max(hi, ws.hi)
		ws.traffic, ws.halted, ws.lo, ws.hi = RoundTraffic{}, 0, len(st.cur), 0
	}
	st.perRound = append(st.perRound, rt)
	st.scanLo, st.scanHi = lo, hi
	st.sendCursor.Store(0)
	st.recvCursor.Store(0)
}

// barrier is an allocation-free cyclic barrier: the round loop crosses it
// twice per round, so it must not allocate (a channel-based barrier would).
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n parties have called wait for the current
// generation, then releases them together. A non-nil onLast runs in the
// last arriver, under the barrier lock, before anyone is released — the
// hook the engine uses to hand the round over race-free.
func (b *barrier) wait(onLast func()) {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		if onLast != nil {
			onLast()
		}
		b.count = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}
