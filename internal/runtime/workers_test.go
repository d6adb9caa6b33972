package runtime_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/mm"
	"repro/internal/runtime"
)

// TestWorkersMatchSequentialMechanics drives echoMachine through the
// parallel path and compares against the inline one.
func TestWorkersMatchSequentialMechanics(t *testing.T) {
	g := triangleFree(t)
	factory := runtime.Factory(func() runtime.Machine { return &echoMachine{target: 3, selfName: "w"} })
	_, seqStats, err := runtime.Run(g, nil, factory, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7} {
		_, wStats, err := runtime.Run(g, nil, factory, 10, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if wStats.Rounds != seqStats.Rounds || wStats.Messages != seqStats.Messages {
			t.Errorf("workers=%d: stats %+v, want %+v", workers, wStats, seqStats)
		}
	}
}

// TestWorkersStaggeredHalting mirrors TestStaggeredHalting for the parallel
// path, including per-node halt times.
func TestWorkersStaggeredHalting(t *testing.T) {
	g, err := graph.PathGraph(4, []group.Color{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	targets := []int{1, 3, 2, 4}
	factoryFor := func() runtime.Factory {
		i := 0
		return func() runtime.Machine {
			m := &echoMachine{target: targets[i%4], selfName: "n"}
			i++
			return m
		}
	}
	_, seqStats, err := runtime.Run(g, nil, factoryFor(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, wStats, err := runtime.Run(g, nil, factoryFor(), 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if wStats.Rounds != seqStats.Rounds {
		t.Errorf("rounds: workers %d, sequential %d", wStats.Rounds, seqStats.Rounds)
	}
	for v := range seqStats.HaltTimes {
		if seqStats.HaltTimes[v] != wStats.HaltTimes[v] {
			t.Errorf("halt time of %d: workers %d, sequential %d", v, wStats.HaltTimes[v], seqStats.HaltTimes[v])
		}
	}
}

// TestWorkersHaltAtTimeZero: machines that halt during Init produce a
// zero-round, zero-message run.
func TestWorkersHaltAtTimeZero(t *testing.T) {
	g := triangleFree(t)
	_, stats, err := runtime.Run(g, nil, runtime.Factory(func() runtime.Machine { return &echoMachine{target: 0} }), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 || stats.Messages != 0 {
		t.Errorf("rounds=%d messages=%d, want 0/0", stats.Rounds, stats.Messages)
	}
}

// TestWorkersMaxRoundsExceeded: the parallel path reports non-termination
// like the inline one.
func TestWorkersMaxRoundsExceeded(t *testing.T) {
	g := triangleFree(t)
	factory := runtime.Factory(func() runtime.Machine { return &echoMachine{target: 99, selfName: "z"} })
	if _, _, err := runtime.Run(g, nil, factory, 5, 2); err == nil ||
		!strings.Contains(err.Error(), "no termination") {
		t.Errorf("err = %v, want termination error", err)
	}
}

// TestWorkersEmptyGraph: a zero-node instance returns the same empty,
// non-nil outputs and halt times at every worker count, as the reference
// interpreter does.
func TestWorkersEmptyGraph(t *testing.T) {
	g := graph.New(0, 3)
	src := runtime.Factory(func() runtime.Machine { return &echoMachine{} })
	check := func(name string, outs []mm.Output, stats *runtime.Stats, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if outs == nil || len(outs) != 0 || stats.HaltTimes == nil || len(stats.HaltTimes) != 0 ||
			stats.Rounds != 0 || stats.Messages != 0 || stats.PerRound != nil {
			t.Errorf("%s: outs=%#v stats=%+v, want empty non-nil outputs and halt times", name, outs, stats)
		}
	}
	for _, workers := range []int{0, 1, 2, 3, 7} {
		outs, stats, err := runtime.Run(g, nil, src, 10, workers)
		check("workers="+strconv.Itoa(workers), outs, stats, err)
	}
	outs, stats, err := runtime.RunReference(g, nil, src, 10)
	check("reference", outs, stats, err)
}
