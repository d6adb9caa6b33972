package runtime

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/mm"
)

// Message is an opaque message exchanged along an edge. The model allows
// arbitrarily large messages (the lower bound holds regardless), so any
// non-nil value is permitted; machines define their own concrete types.
// A nil Message means "send nothing".
type Message any

// NodeInfo is a node's initial local knowledge: the palette size and its
// incident edge colours in increasing order. Nodes are anonymous — no
// identifiers are provided. Label carries optional per-node input (for
// example the side bit of a 2-coloured/bipartite instance); it is zero
// unless the run supplies labels.
type NodeInfo struct {
	K      int
	Colors []group.Color
	Label  int
}

// Sizer is an optional interface for messages that want accurate byte
// accounting in the per-round traffic histograms: WireBytes reports the
// payload size in bytes. Messages without it count as one byte (a control
// word), which is exact for the wire vocabulary of the dist machines.
type Sizer interface {
	WireBytes() int
}

// messageBytes is the histogram size of one message.
func messageBytes(m Message) int {
	if s, ok := m.(Sizer); ok {
		return s.WireBytes()
	}
	return 1
}

// Machine is the per-node state machine of a synchronous distributed
// algorithm. Colours are 1…k, so a round's messages fit in a slice indexed
// by edge colour. The engine drives a machine as:
//
//	Init(info)                          // time 0; may already halt
//	for !Halted():
//	    Send(out, arena)                // round r begins
//	    Receive(in)                     // messages from non-halted peers
//
// Output must be valid once Halted reports true. Machines are used by a
// single goroutine at a time and need not be safe for concurrent use.
type Machine interface {
	// Init resets the machine with the node's initial knowledge.
	Init(info NodeInfo)
	// Send writes this round's outgoing messages into out (length k+1,
	// all-nil on entry): out[c] is the message for the colour-c edge, nil
	// means "send nothing", and only the node's incident colours may be
	// written. Variable-length payloads are allocated from arena (see
	// RoundArena for their lifetime). The engine owns out and arena;
	// machines must not retain either across calls.
	Send(out []Message, arena *RoundArena)
	// Receive delivers this round's incoming messages, in[c] holding the
	// message received along the colour-c edge, and lets the machine
	// update its state. in[c] is nil where the peer sent nothing or has
	// halted. The engine owns in; machines must not retain it.
	Receive(in []Message)
	// Halted reports whether the node has stopped.
	Halted() bool
	// Output returns the announced local output; valid once Halted.
	Output() mm.Output
}

// Source produces the machines of one engine run. The engine knows its node
// count up front, so the primitive is a single batch request rather than n
// individual factory calls; pooling-aware sources (NewPool) return the same
// backing machines — and the same boxed slice — run after run, which is
// what makes repeated executions allocation-free. The returned slice is
// owned by the source and must not be mutated by the caller; machines are
// handed out in node order.
type Source interface {
	NewPool(n int) []Machine
}

// Factory creates one fresh Machine per node. It is the simplest Source:
// NewPool is n independent factory calls in node order.
type Factory func() Machine

// NewPool implements Source.
func (f Factory) NewPool(n int) []Machine {
	ms := make([]Machine, n)
	for i := range ms {
		ms[i] = f()
	}
	return ms
}

// RoundTraffic is one round's delivered traffic.
type RoundTraffic struct {
	// Messages counts edge-messages delivered in the round.
	Messages int
	// Bytes is the total payload size of those messages: WireBytes for
	// messages implementing Sizer, one byte per bare control message.
	Bytes int
}

// Stats aggregates an execution.
type Stats struct {
	// Rounds is the running time: communication rounds until every node
	// halted (halting at time 0 gives 0 rounds).
	Rounds int
	// Messages counts edge-messages delivered over the whole run.
	Messages int
	// HaltTimes records, per node, the round after which it halted.
	HaltTimes []int
	// PerRound is the per-round message/byte histogram: PerRound[r-1]
	// describes round r, there is one entry per round (nil for a run that
	// halts at time 0), and the message counts sum to Messages. Compare
	// against the paper's communication bounds: greedy delivers at most one
	// message per node per round, the reduction phases one colour list per
	// directed edge.
	PerRound []RoundTraffic
}

// DefaultMaxRounds bounds executions to catch non-terminating protocols.
func DefaultMaxRounds(g *graph.Graph) int { return 4*g.K() + g.N() + 16 }

func checkLabels(g *graph.Graph, labels []int) error {
	if labels != nil && len(labels) != g.N() {
		return fmt.Errorf("runtime: %d labels for %d nodes", len(labels), g.N())
	}
	return nil
}

func labelOf(labels []int, v int) int {
	if labels == nil {
		return 0
	}
	return labels[v]
}
