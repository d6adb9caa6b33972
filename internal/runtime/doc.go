// Package runtime implements the synchronous LOCAL execution model of
// Hirvonen & Suomela (PODC 2012, §1.2) for anonymous, properly
// edge-coloured graphs.
//
// Each node is a computational entity that initially knows only the colours
// of its incident edges (and the palette size k). In every round each node,
// in parallel, (1) sends a message along each incident edge, (2) receives a
// message from each incident edge, and (3) updates its state. After any
// round — or immediately after initialisation — a node may stop and announce
// its local output. The running time of an execution is the number of
// rounds until every node has stopped.
//
// # Machine protocol
//
// Machine is the one per-node interface: Init with the node's initial
// knowledge, then Send/Receive pairs until Halted. Colours are 1…k, so a
// round's messages fit in a []Message of length k+1 indexed by edge
// colour. Send may write out[c] only for the node's incident colours, and
// nil means "send nothing"; Receive sees in[c] == nil where the peer sent
// nothing or has halted. The engine owns both buffers, and machines must
// not retain them across calls.
//
// Send also gets a per-worker RoundArena, from which machines bump-allocate
// variable-length payloads (the reduction phases' colour lists). Payloads
// live exactly as long as the round's messages are in flight: the engine
// resets the arena only once every receiver of the round is done.
// Receivers must not retain a payload — or any slice into it — past the
// Receive call that delivered it.
//
// # One round loop
//
// Run is the only engine. Messages live in a dense slab with one slot per
// directed edge, indexed exactly like graph.Halves(): slab[i] is the
// message in flight on directed edge i, written by the sender during the
// send phase and consumed (re-nilled) by the unique reader during the
// receive phase. Every round runs the same two phase functions, sendRange
// and recvRange, over a range of the live frontier:
//
//   - workers ≤ 1 calls them inline on the caller's goroutine, once per
//     phase over the whole live window — the sequential engine, with no
//     goroutine, barrier or claim cursor;
//   - workers > 1 runs them from a fixed pool of goroutines that claim
//     frontier chunks by work stealing (below), with a barrier between the
//     phases and another at the end of the round.
//
// Either way the two phases never overlap and each slot has exactly one
// writer and one reader, so no slot is ever touched concurrently and the
// round loop allocates nothing. Slots whose reader has halted may keep a
// stale message; a halted reader never reads again, so they are harmless
// (and such messages are never counted in the statistics: delivered means
// read by a live node). The scratch — slab, frontiers, per-worker buffers
// and arenas — is pooled across runs.
//
// # Bitset frontiers and work stealing
//
// Liveness is a 64-bit word bitset (bit v of word v>>6 is set while node v
// runs), double-buffered per round: the receive phase clears a halting
// node's bit in the next-round frontier with AND-NOT and the buffers swap
// at the end of the round. Scans walk only a live-word window
// [scanLo, scanHi) — liveness is monotone, so the window only shrinks —
// and within a word iterate set bits with TrailingZeros64. A long tail of
// rounds with few live nodes therefore costs per-word scans proportional
// to the surviving cluster, not O(n) per round.
//
// With workers > 1, each phase is distributed by work stealing: workers
// claim fixed-size chunks of the live window's word range from an atomic
// cursor (one per phase, reset behind the barrier) until the cursor runs
// off the end. The claim schedule is nondeterministic; the results are
// not, by this argument: a chunk claim decides only WHICH worker processes
// a node's sends or receives, never what happens to them. Send-phase
// writes land in the per-directed-edge slab slot of the sending half, a
// location fixed by the graph, not the schedule. Receive-phase chunks are
// disjoint word ranges, so a claimant exclusively owns its nodes' frontier
// words — and with them the next-frontier writes and halt-time entries;
// the per-round traffic, halt counts and live-word bounds are per-worker
// tallies merged at the barrier. Every claim interleaving therefore
// produces byte-identical outputs and Stats, which the steal-interleaving
// tests pin by shrinking chunks to one word and yielding between claims.
//
// # The reference interpreter
//
// The equivalence tests hold Run, at several worker counts, against a
// naive reference interpreter that lives in the package's tests
// (RunReference): a per-node loop with fresh per-round message buffers and
// arenas, no frontier or slab, counting traffic itself. It shares no code
// path with Run, so it witnesses the model rather than the engine.
//
// # Statistics
//
// Stats reports rounds, delivered messages, per-node halt times and
// Stats.PerRound, the per-round message/byte histogram (bytes via the
// optional Sizer interface; bare control words count one byte). The
// histogram is what internal/sweep holds against the paper's
// communication contracts: greedy delivers at most one message per live
// node per round, the reduction phases at most one colour list per
// directed edge per round.
package runtime
