package runtime_test

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/mm"
	"repro/internal/runtime"
)

// echoMachine halts after a fixed number of rounds, recording everything it
// heard; used to validate engine mechanics independently of any algorithm.
type echoMachine struct {
	rounds   int
	target   int
	colors   []group.Color
	heard    []string
	halted   bool
	selfName string
}

func (m *echoMachine) Init(info runtime.NodeInfo) {
	m.colors = info.Colors
	m.rounds = 0
	m.halted = m.target == 0
}

func (m *echoMachine) Send(out []runtime.Message, _ *runtime.RoundArena) {
	for _, c := range m.colors {
		out[c] = m.selfName
	}
}

func (m *echoMachine) Receive(in []runtime.Message) {
	for _, msg := range in {
		if msg != nil {
			m.heard = append(m.heard, msg.(string))
		}
	}
	m.rounds++
	m.halted = m.rounds >= m.target
}

func (m *echoMachine) Halted() bool { return m.halted }

func (m *echoMachine) Output() mm.Output { return mm.Bottom }

func triangleFree(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.PathGraph(3, []group.Color{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSequentialMechanics(t *testing.T) {
	g := triangleFree(t)
	outs, stats, err := runtime.Run(g, nil, runtime.Factory(func() runtime.Machine { return &echoMachine{target: 2, selfName: "x"} }), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("outs = %v", outs)
	}
	if stats.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", stats.Rounds)
	}
	// Messages: path 0−1−2; per round: node0→1, node1→0, node1→2, node2→1
	// = 4 deliveries; 2 rounds = 8.
	if stats.Messages != 8 {
		t.Errorf("messages = %d, want 8", stats.Messages)
	}
	if len(stats.PerRound) != 2 || stats.PerRound[0] != (runtime.RoundTraffic{Messages: 4, Bytes: 4}) {
		t.Errorf("per-round = %+v, want two rounds of 4 one-byte messages", stats.PerRound)
	}
}

// TestReferenceMatchesSequential holds the sequential engine's mechanics
// against the reference interpreter on the echo protocol.
func TestReferenceMatchesSequential(t *testing.T) {
	g := triangleFree(t)
	factory := runtime.Factory(func() runtime.Machine { return &echoMachine{target: 3, selfName: "m"} })
	_, seqStats, err := runtime.Run(g, nil, factory, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, refStats, err := runtime.RunReference(g, nil, factory, 10)
	if err != nil {
		t.Fatal(err)
	}
	if seqStats.Rounds != refStats.Rounds {
		t.Errorf("rounds: seq %d, reference %d", seqStats.Rounds, refStats.Rounds)
	}
	if seqStats.Messages != refStats.Messages {
		t.Errorf("messages: seq %d, reference %d", seqStats.Messages, refStats.Messages)
	}
}

func TestHaltAtTimeZero(t *testing.T) {
	g := triangleFree(t)
	factory := runtime.Factory(func() runtime.Machine { return &echoMachine{target: 0} })
	for _, workers := range []int{1, 2} {
		_, stats, err := runtime.Run(g, nil, factory, 10, workers)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds != 0 || stats.Messages != 0 || stats.PerRound != nil {
			t.Errorf("workers=%d: rounds=%d messages=%d per-round=%v, want 0/0/nil",
				workers, stats.Rounds, stats.Messages, stats.PerRound)
		}
	}
	_, stats, err := runtime.RunReference(g, nil, factory, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 || stats.Messages != 0 {
		t.Errorf("reference rounds=%d messages=%d, want 0/0", stats.Rounds, stats.Messages)
	}
}

func TestStaggeredHalting(t *testing.T) {
	// Nodes halt at different rounds; the engine must keep delivering
	// between the surviving nodes.
	g, err := graph.PathGraph(4, []group.Color{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	targets := []int{1, 3, 2, 4}
	i := 0
	factory := runtime.Factory(func() runtime.Machine {
		m := &echoMachine{target: targets[i%4], selfName: "n"}
		i++
		return m
	})
	_, seqStats, err := runtime.Run(g, nil, factory, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	i = 0
	_, refStats, err := runtime.RunReference(g, nil, factory, 10)
	if err != nil {
		t.Fatal(err)
	}
	if seqStats.Rounds != 4 || refStats.Rounds != 4 {
		t.Errorf("rounds: seq %d, reference %d, want 4", seqStats.Rounds, refStats.Rounds)
	}
	for v := range seqStats.HaltTimes {
		if seqStats.HaltTimes[v] != refStats.HaltTimes[v] {
			t.Errorf("halt time of %d: seq %d, reference %d", v, seqStats.HaltTimes[v], refStats.HaltTimes[v])
		}
	}
}

func TestMaxRoundsExceeded(t *testing.T) {
	g := triangleFree(t)
	factory := runtime.Factory(func() runtime.Machine { return &echoMachine{target: 99, selfName: "z"} })
	if _, _, err := runtime.Run(g, nil, factory, 5, 1); err == nil ||
		!strings.Contains(err.Error(), "no termination") {
		t.Errorf("sequential err = %v, want termination error", err)
	}
}

func TestDefaultMaxRounds(t *testing.T) {
	g := triangleFree(t)
	if runtime.DefaultMaxRounds(g) <= g.K() {
		t.Error("DefaultMaxRounds too small")
	}
}
