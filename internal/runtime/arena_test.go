package runtime

import (
	"testing"

	"repro/internal/group"
)

// TestRoundArenaPayloadsSurviveGrowth: list headers handed out before the
// header slab grows must stay intact, because their messages are still in
// flight. The lists are short, so only the header slab grows here.
func TestRoundArenaPayloadsSurviveGrowth(t *testing.T) {
	var a RoundArena
	var lists []*ColorList
	for i := 0; i < 500; i++ {
		lists = append(lists, a.Pack([]group.Color{group.Color(i % 100)}))
	}
	for i, l := range lists {
		if got := l.AppendTo(nil); len(got) != 1 || got[0] != group.Color(i%100) {
			t.Fatalf("payload %d corrupted after growth: %v", i, got)
		}
	}
}

// TestRoundArenaListsAreDisjoint: two payloads from the same round must be
// distinct records that do not alias each other's storage.
func TestRoundArenaListsAreDisjoint(t *testing.T) {
	var a RoundArena
	colors := []group.Color{1, 2, 3, 4}
	l1 := a.Pack(colors)
	colors[0] = 9 // the caller keeps ownership; the packed copy is immutable
	l2 := a.Pack([]group.Color{9, 9, 9, 9})
	if l1 == l2 {
		t.Fatal("arena returned the same record twice")
	}
	if got := l1.AppendTo(nil); got[0] != 1 || got[3] != 4 {
		t.Fatalf("l1 clobbered: %v", got)
	}
	if got := l2.AppendTo(nil); got[0] != 9 || got[3] != 9 {
		t.Fatalf("l2 clobbered: %v", got)
	}
}

// TestRoundArenaResetRecycles: after Reset the arena reuses its slabs and a
// warm arena allocates nothing per round.
func TestRoundArenaResetRecycles(t *testing.T) {
	var a RoundArena
	colors := []group.Color{1, 2, 3, 4, 5}
	round := func() {
		a.Reset()
		for i := 0; i < 32; i++ {
			a.Pack(colors)
		}
	}
	// Warm the slabs to their steady-state size.
	for r := 0; r < 3; r++ {
		round()
	}
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Errorf("warm arena round allocated %.1f times, want 0", allocs)
	}
}

// TestRoundArenaZeroLength: zero-length lists are legal (isolated positions).
func TestRoundArenaZeroLength(t *testing.T) {
	var a RoundArena
	l := a.Pack(nil)
	if l.Len() != 0 || l.WireBytes() != 0 || len(l.AppendTo(nil)) != 0 {
		t.Fatalf("empty list has Len %d, WireBytes %d", l.Len(), l.WireBytes())
	}
}

// checkPackedRoundTrip packs colors and verifies the packed representation
// decodes back exactly, with Len/WireBytes counting one word per colour.
func checkPackedRoundTrip(t *testing.T, a *RoundArena, colors []group.Color) *ColorList {
	t.Helper()
	l := a.Pack(colors)
	if l.Len() != len(colors) {
		t.Fatalf("packed Len = %d, want %d", l.Len(), len(colors))
	}
	if l.WireBytes() != 8*len(colors) {
		t.Fatalf("packed WireBytes = %d, want %d — packing must not change wire cost", l.WireBytes(), 8*len(colors))
	}
	got := l.AppendTo(nil)
	if len(got) != len(colors) {
		t.Fatalf("decoded %d colours, want %d", len(got), len(colors))
	}
	for i := range colors {
		if got[i] != colors[i] {
			t.Fatalf("colour %d decoded as %d, want %d (input %v)", i, got[i], colors[i], colors)
		}
	}
	return l
}

// TestPackRoundTrip covers the delta+varint codec's shapes: ascending runs
// (the common post-Linial case), descending runs (negative deltas, the
// reason for zigzag), jumps that need multi-byte varints, and empties.
func TestPackRoundTrip(t *testing.T) {
	var a RoundArena
	cases := [][]group.Color{
		nil,
		{5},
		{1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1},
		{7, 7, 7},
		{1, 1 << 20, 3, 1 << 30, 2},
		{1 << 30, 1, 1 << 29, 2},
	}
	for _, colors := range cases {
		checkPackedRoundTrip(t, &a, colors)
	}
}

// TestPackedPayloadsSurviveGrowth: like the header-slab test above, but for
// the byte slab — packed payloads handed out before a growth step must stay
// decodable, since their messages are still in flight.
func TestPackedPayloadsSurviveGrowth(t *testing.T) {
	var a RoundArena
	var lists []*ColorList
	var want [][]group.Color
	for i := 0; i < 500; i++ {
		colors := []group.Color{group.Color(i), group.Color(i * 3), group.Color(1 << (i % 31))}
		lists = append(lists, a.Pack(colors))
		want = append(want, colors)
	}
	for i, l := range lists {
		got := l.AppendTo(nil)
		if len(got) != 3 || got[0] != want[i][0] || got[1] != want[i][1] || got[2] != want[i][2] {
			t.Fatalf("packed payload %d corrupted after growth: %v, want %v", i, got, want[i])
		}
	}
}

// TestAppendToReusesScratch: AppendTo into a pre-grown scratch buffer must
// not allocate — this is the receive-path contract peerList relies on.
func TestAppendToReusesScratch(t *testing.T) {
	var a RoundArena
	l := a.Pack([]group.Color{3, 9, 2, 40, 40, 7})
	scratch := make([]group.Color, 0, 16)
	allocs := testing.AllocsPerRun(10, func() {
		scratch = l.AppendTo(scratch[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendTo into sized scratch allocated %.1f times, want 0", allocs)
	}
}

// FuzzColorListCodec round-trips arbitrary colour sequences through
// Pack/AppendTo. Inputs are read as little-endian uint32 words masked to
// non-negative Color values, so the fuzzer explores both tiny deltas (one-
// byte varints) and wild jumps (multi-byte, sign flips).
func FuzzColorListCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 127, 0, 0, 0, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		colors := make([]group.Color, 0, len(data)/4)
		for i := 0; i+4 <= len(data); i += 4 {
			u := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16 | uint32(data[i+3])<<24
			colors = append(colors, group.Color(u&0x7fffffff))
		}
		var a RoundArena
		l := a.Pack(colors)
		if l.Len() != len(colors) || l.WireBytes() != 8*len(colors) {
			t.Fatalf("Len/WireBytes = %d/%d, want %d/%d", l.Len(), l.WireBytes(), len(colors), 8*len(colors))
		}
		got := l.AppendTo(nil)
		for i := range colors {
			if got[i] != colors[i] {
				t.Fatalf("colour %d decoded as %d, want %d", i, got[i], colors[i])
			}
		}
		if len(got) != len(colors) {
			t.Fatalf("decoded %d colours, want %d", len(got), len(colors))
		}
	})
}
