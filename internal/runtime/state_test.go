package runtime

import "testing"

// TestWorkersStateFitZeroesFrontier is the unit half of the pool-reuse fix:
// fit must hand back all-zero frontier words even when a previous (larger)
// run left bits behind — an errored run abandons its frontier mid-round.
func TestWorkersStateFitZeroesFrontier(t *testing.T) {
	st := &workersState{}
	st.fit(200, 0, 2, 4)
	for i := range st.cur {
		st.cur[i] = ^uint64(0)
		st.next[i] = ^uint64(0)
	}
	st.fit(100, 0, 2, 4)
	for i := range st.cur {
		if st.cur[i] != 0 || st.next[i] != 0 {
			t.Fatalf("word %d not zeroed on reuse: cur=%x next=%x", i, st.cur[i], st.next[i])
		}
	}
}
