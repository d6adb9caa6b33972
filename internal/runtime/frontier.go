package runtime

// Frontier bitsets: the engine tracks live nodes in 64-bit words
// indexed by node ID (bit v of word v>>6). A round scans the set bits with
// branch-free bits.TrailingZeros64 loops — O(n/64 + live) per round instead
// of the O(n) halted-flag walk or per-shard active-list bookkeeping — and
// builds the next round's frontier as it delivers: a word's halted bits are
// cleared with a single AND-NOT, double-buffered so the send phase of round
// r+1 reads a stable snapshot while round r wrote its successor.
//
// The word arrays are pooled in workersState; fit zeroes them on reuse so a
// run can set only its own live bits without inheriting liveness from a
// previous (differently-shaped) run.

// frontierWords is the number of 64-bit words covering n node IDs.
func frontierWords(n int) int { return (n + 63) / 64 }

// frontierSet marks node v live.
func frontierSet(words []uint64, v int) { words[v>>6] |= 1 << uint(v&63) }
