package runtime_test

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/mm"
	"repro/internal/runtime"
)

// chatterMachine is a randomized-but-deterministic machine: its halting
// round and message pattern derive from a per-node seed, so every engine
// must still agree exactly. It exercises staggered halting, selective
// sending and label plumbing under many topologies.
type chatterMachine struct {
	seed    int64
	rng     *rand.Rand
	colors  []group.Color
	label   int
	target  int
	rounds  int
	halted  bool
	counter int
}

func (m *chatterMachine) Init(info runtime.NodeInfo) {
	m.rng = rand.New(rand.NewSource(m.seed))
	m.colors = info.Colors
	m.label = info.Label
	m.target = m.rng.Intn(6)
	m.rounds = 0
	m.counter = 0
	m.halted = m.target == 0
}

func (m *chatterMachine) Send(out []runtime.Message, _ *runtime.RoundArena) {
	for _, c := range m.colors {
		// Send on a pseudo-random subset of edges.
		if m.rng.Intn(2) == 0 {
			out[c] = int(c) + m.label
		}
	}
}

func (m *chatterMachine) Receive(in []runtime.Message) {
	for _, msg := range in {
		if msg != nil {
			m.counter += msg.(int)
		}
	}
	m.rounds++
	m.halted = m.rounds >= m.target
}

func (m *chatterMachine) Halted() bool { return m.halted }

func (m *chatterMachine) Output() mm.Output {
	// Encode the accumulated counter (mod palette) so output equality is a
	// strong check of identical message histories.
	return mm.Output{Color: group.Color(m.counter%7 + 1)}
}

func TestEnginesAgreeOnRandomProtocols(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(24)
		k := 2 + rng.Intn(6)
		g := graph.RandomMatchingUnion(n, k, 0.7, rng)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(3)
		}
		seeds := make([]int64, n)
		for i := range seeds {
			seeds[i] = rng.Int63()
		}
		// A fresh factory per run: machines are handed out in node order,
		// so node v always gets seeds[v].
		newSrc := func() runtime.Source {
			i := 0
			return runtime.Factory(func() runtime.Machine {
				m := &chatterMachine{seed: seeds[i%n]}
				i++
				return m
			})
		}
		agree(t, "trial "+strconv.Itoa(trial), g, labels, newSrc, 64)
	}
}
