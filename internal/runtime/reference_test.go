package runtime

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/mm"
)

// RunReference is the tests' independent witness for Run: a naive
// interpreter of the §1.2 round, written for obviousness rather than speed.
// Each round every live node sends into a fresh colour-indexed buffer with
// a fresh arena, then every live node receives a fresh buffer gathered from
// its live peers' sends, and the interpreter counts the traffic itself. It
// shares no frontier, slab, arena reuse or phase function with Run, so the
// equivalence tests pin the engine against the model rather than against
// itself.
func RunReference(g *graph.Graph, labels []int, src Source, maxRounds int) ([]mm.Output, *Stats, error) {
	if labels != nil && len(labels) != g.N() {
		return nil, nil, fmt.Errorf("reference: %d labels for %d nodes", len(labels), g.N())
	}
	n, k := g.N(), g.K()
	machines := src.NewPool(n)
	live := make([]bool, n)
	for v, m := range machines {
		label := 0
		if labels != nil {
			label = labels[v]
		}
		m.Init(NodeInfo{K: k, Colors: g.IncidentColors(v), Label: label})
		live[v] = !m.Halted()
	}
	stats := &Stats{HaltTimes: make([]int, n)}
	for round := 1; ; round++ {
		var running []int
		for v := range machines {
			if live[v] {
				running = append(running, v)
			}
		}
		if len(running) == 0 {
			break
		}
		if round > maxRounds {
			return nil, nil, fmt.Errorf("reference: no termination within %d rounds", maxRounds)
		}
		sent := make([][]Message, n)
		arena := new(RoundArena)
		for _, v := range running {
			sent[v] = make([]Message, k+1)
			machines[v].Send(sent[v], arena)
		}
		var traffic RoundTraffic
		for _, v := range running {
			in := make([]Message, k+1)
			for _, h := range g.Incident(v) {
				if sent[h.Peer] == nil || sent[h.Peer][h.Color] == nil {
					continue
				}
				msg := sent[h.Peer][h.Color]
				in[h.Color] = msg
				traffic.Messages++
				if s, ok := msg.(Sizer); ok {
					traffic.Bytes += s.WireBytes()
				} else {
					traffic.Bytes++
				}
			}
			machines[v].Receive(in)
			if machines[v].Halted() {
				live[v] = false
				stats.HaltTimes[v] = round
			}
		}
		stats.Rounds = round
		stats.Messages += traffic.Messages
		stats.PerRound = append(stats.PerRound, traffic)
	}
	outs := make([]mm.Output, n)
	for v, m := range machines {
		outs[v] = m.Output()
	}
	return outs, stats, nil
}
