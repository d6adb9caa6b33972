package runtime

import "sync/atomic"

// atomicCursor is the phase-claim counter; pooled in workersState so runs
// allocate none.
type atomicCursor = atomic.Int64

// Work-stealing round scheduler: instead of fixed degree-balanced shards,
// Run's parallel workers claim fixed-size chunks of the frontier's word
// range from an atomic cursor, one cursor per phase. A tail round whose few
// live nodes once sat in a single shard now spreads across whichever
// workers claim their chunks first; an idle worker keeps claiming until the
// cursor runs off the end.
//
// Determinism (see also runtime/doc.go): the schedule decides only *which
// worker* processes a node, never *what happens* to it. Sends land in the
// per-directed-edge slab slot of the sending half regardless of the
// claiming worker, receive-phase chunks are disjoint word ranges so each
// claimant exclusively owns the frontier words (and hence the next-frontier
// writes and halt times) of its nodes, and the per-round traffic, halt
// counts and live-word bounds are integer tallies merged across workers —
// every interleaving of chunk claims therefore produces byte-identical
// outputs and Stats.

// stealChunkWords is the minimum claim granularity in frontier words (64
// nodes per word); tests shrink it to 1 to force adversarial
// interleavings. chunkWordsFor raises it on large frontiers so cursor
// traffic stays bounded: a long tail (many rounds, few live nodes) would
// otherwise spend more on claim atomics than on the word scans themselves.
var stealChunkWords = 16

// stealYield, when non-nil, runs between chunk claims. It exists for tests
// only: setting it to runtime.Gosched perturbs the claim schedule so the
// equivalence pins cover adversarial interleavings.
var stealYield func()

// chunkWordsFor picks the claim granularity for a run: at least the
// configured minimum, at most what still leaves ~16 chunks per worker for
// balance. The choice only shapes the schedule, never the result.
func chunkWordsFor(words, workers int) int {
	chunk := stealChunkWords
	if adaptive := words / (16 * workers); adaptive > chunk {
		chunk = adaptive
	}
	return chunk
}

// claimChunk claims the next chunk from cursor and returns its word range;
// ok is false once the live window [base, limit) is exhausted.
func claimChunk(cursor *atomicCursor, base, limit, chunkWords int) (lo, hi int, ok bool) {
	if stealYield != nil {
		stealYield()
	}
	c := int(cursor.Add(1)) - 1
	lo = base + c*chunkWords
	if lo >= limit {
		return 0, 0, false
	}
	hi = lo + chunkWords
	if hi > limit {
		hi = limit
	}
	return lo, hi, true
}
