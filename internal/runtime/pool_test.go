package runtime_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/mm"
	"repro/internal/runtime"
)

// poolProbe is a minimal machine recording how it was set up; used to test
// the generic Pool source.
type poolProbe struct {
	tag    int
	inited int
}

func (m *poolProbe) Init(info runtime.NodeInfo)                  { m.inited++ }
func (m *poolProbe) Send([]runtime.Message, *runtime.RoundArena) {}
func (m *poolProbe) Receive([]runtime.Message)                   {}
func (m *poolProbe) Halted() bool                                { return true }
func (m *poolProbe) Output() mm.Output                           { return mm.Bottom }

// TestPoolReusesMachinesAcrossRuns checks the Source contract of Pool: the
// same backing machines and the same boxed slice are handed out run after
// run, setup is applied to every arena slot, and growth re-runs setup.
func TestPoolReusesMachinesAcrossRuns(t *testing.T) {
	p := runtime.NewPool[poolProbe](3, func(m *poolProbe) { m.tag = 7 })
	a := p.NewPool(3)
	b := p.NewPool(2)
	if &a[0] != &b[0] || a[0] != b[0] {
		t.Fatal("NewPool did not reuse the boxed slice and machines")
	}
	for i, m := range a {
		if m.(*poolProbe).tag != 7 {
			t.Fatalf("machine %d missed setup", i)
		}
	}
	// Growth must preserve existing machines (their accumulated scratch is
	// the point of pooling) and set up only the added tail.
	a[0].(*poolProbe).inited = 42
	big := p.NewPool(5)
	if len(big) != 5 {
		t.Fatalf("grown pool has %d machines", len(big))
	}
	if big[0].(*poolProbe).inited != 42 {
		t.Fatal("growth discarded existing machine state")
	}
	for i, m := range big {
		if m.(*poolProbe).tag != 7 {
			t.Fatalf("machine %d missed setup after growth", i)
		}
	}
}

// TestFactoryNewPool checks the Factory adapter calls the factory once per
// node in order.
func TestFactoryNewPool(t *testing.T) {
	calls := 0
	f := runtime.Factory(func() runtime.Machine {
		m := &poolProbe{tag: calls}
		calls++
		return m
	})
	ms := f.NewPool(4)
	if calls != 4 {
		t.Fatalf("factory called %d times", calls)
	}
	for i, m := range ms {
		if m.(*poolProbe).tag != i {
			t.Fatalf("machine %d out of order (tag %d)", i, m.(*poolProbe).tag)
		}
	}
}

// TestEnginesUsePoolBatch drives the inline and parallel paths and the
// reference interpreter from one Pool and checks each run re-initialises
// the same machines.
func TestEnginesUsePoolBatch(t *testing.T) {
	g := graph.New(3, 2)
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	p := runtime.NewPool[poolProbe](3, nil)
	for run := 1; run <= 2; run++ {
		if _, _, err := runtime.Run(g, nil, p, 8, 1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := runtime.Run(g, nil, p, 8, 2); err != nil {
			t.Fatal(err)
		}
		if _, _, err := runtime.RunReference(g, nil, p, 8); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range p.NewPool(3) {
		if m.(*poolProbe).inited != 6 {
			t.Fatalf("machine %d initialised %d times, want 6", i, m.(*poolProbe).inited)
		}
	}
}
