package trace

import (
	"math/rand"
	"testing"

	"michican/internal/bus"
	"michican/internal/can"
)

// pattern builds a deterministic pseudo-random level sequence of length n.
func pattern(seed int64, n int) []can.Level {
	rng := rand.New(rand.NewSource(seed))
	levels := make([]can.Level, n)
	for i := range levels {
		if rng.Intn(2) == 1 {
			levels[i] = can.Recessive
		} else {
			levels[i] = can.Dominant
		}
	}
	return levels
}

// feedPerBit records a level sequence one Bit() call at a time.
func feedPerBit(r *Recorder, from bus.BitTime, levels []can.Level) {
	for i, lv := range levels {
		r.Bit(from+bus.BitTime(i), lv)
	}
}

// requireSameBits asserts two recorders hold identical streams.
func requireSameBits(t *testing.T, got, want *Recorder) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	if got.Start() != want.Start() {
		t.Fatalf("Start = %d, want %d", got.Start(), want.Start())
	}
	gb, wb := got.Bits(), want.Bits()
	for i := range wb {
		if gb[i] != wb[i] {
			t.Fatalf("bit %d = %v, want %v", i, gb[i], wb[i])
		}
	}
}

// TestBitRunMatchesBit: a single BitRun delivery produces the exact bit
// stream of per-bit recording, across every packing-relevant span length
// (sub-word, exactly one word, word+1, multi-word, multi-word with tail).
func TestBitRunMatchesBit(t *testing.T) {
	for _, n := range []int{1, 7, 63, 64, 65, 128, 200, 1000} {
		levels := pattern(int64(n), n)
		run, ref := NewRecorder(), NewRecorder()
		run.BitRun(40, levels)
		feedPerBit(ref, 40, levels)
		requireSameBits(t, run, ref)
	}
}

// TestBitRunWordBoundaryOffsets: BitRun deliveries landing at every offset
// within a 64-bit storage word — the span start, end, or both can fall
// mid-word, and the packed words must still agree with per-bit recording.
func TestBitRunWordBoundaryOffsets(t *testing.T) {
	for _, prefix := range []int{0, 1, 31, 62, 63, 64, 65, 127} {
		for _, n := range []int{1, 2, 63, 64, 65, 130} {
			pre := pattern(1, prefix)
			span := pattern(int64(prefix*1000+n), n)
			run, ref := NewRecorder(), NewRecorder()
			feedPerBit(run, 0, pre)
			run.BitRun(bus.BitTime(prefix), span)
			feedPerBit(ref, 0, pre)
			feedPerBit(ref, bus.BitTime(prefix), span)
			requireSameBits(t, run, ref)
		}
	}
}

// TestBitRunChainedSpans: back-to-back BitRun deliveries of varying lengths
// (the contend rung delivers one span per forwarded frame) keep the
// packing consistent across span joins that straddle word boundaries.
func TestBitRunChainedSpans(t *testing.T) {
	run, ref := NewRecorder(), NewRecorder()
	at := bus.BitTime(0)
	for i, n := range []int{5, 59, 64, 1, 63, 66, 128, 3} {
		span := pattern(int64(i+1), n)
		run.BitRun(at, span)
		feedPerBit(ref, at, span)
		at += bus.BitTime(n)
	}
	requireSameBits(t, run, ref)
}

// TestBitRunAfterSkipIdle: interleaving the idle fast path's word-fill
// recording with BitRun spans and per-bit stretches — the three recording
// paths must compose into one indistinguishable stream.
func TestBitRunAfterSkipIdle(t *testing.T) {
	for _, idle := range []int{1, 11, 63, 64, 65, 200} {
		span := pattern(int64(idle), 97)
		run, ref := NewRecorder(), NewRecorder()
		run.Bit(0, can.Dominant)
		run.SkipIdle(1, bus.BitTime(1+idle))
		run.BitRun(bus.BitTime(1+idle), span)

		ref.Bit(0, can.Dominant)
		for i := 0; i < idle; i++ {
			ref.Bit(bus.BitTime(1+i), can.Recessive)
		}
		feedPerBit(ref, bus.BitTime(1+idle), span)
		requireSameBits(t, run, ref)
	}
}

// TestBitRunZeroLength: an empty span is a no-op — no bits recorded, and in
// particular a zero-length run before the first real delivery must not latch
// the stream start time (splice boundaries can propose empty clamps).
func TestBitRunZeroLength(t *testing.T) {
	r := NewRecorder()
	r.BitRun(500, nil)
	r.BitRun(700, []can.Level{})
	if r.Len() != 0 {
		t.Fatalf("Len = %d after zero-length runs, want 0", r.Len())
	}
	r.BitRun(900, []can.Level{can.Dominant})
	if r.Start() != 900 {
		t.Errorf("Start = %d, want 900 (zero-length run must not latch start)", r.Start())
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}

	// Zero-length runs interleaved with real spans leave the stream identical.
	run, ref := NewRecorder(), NewRecorder()
	a, b := pattern(3, 37), pattern(4, 91)
	run.BitRun(0, a)
	run.BitRun(bus.BitTime(len(a)), nil)
	run.BitRun(bus.BitTime(len(a)), b)
	feedPerBit(ref, 0, a)
	feedPerBit(ref, bus.BitTime(len(a)), b)
	requireSameBits(t, run, ref)
}

// TestBitRunBackToBackSplices: consecutive full-frame splice deliveries with
// no exact bits between them — every combination of span end offset and next
// span start offset within a storage word must pack identically to per-bit
// recording.
func TestBitRunBackToBackSplices(t *testing.T) {
	// Frame-ish span lengths that cover mid-word starts and ends (a classical
	// CAN frame window is 47..111+ bits, never word-aligned in general).
	lens := []int{47, 55, 64, 65, 95, 111, 128, 63}
	for shift := 0; shift < 3; shift++ {
		run, ref := NewRecorder(), NewRecorder()
		at := bus.BitTime(shift * 17)
		if shift > 0 {
			pre := pattern(int64(shift), shift*17)
			feedPerBit(run, 0, pre)
			feedPerBit(ref, 0, pre)
		}
		for i, n := range lens {
			span := pattern(int64(100*shift+i), n)
			run.BitRun(at, span)
			feedPerBit(ref, at, span)
			at += bus.BitTime(n)
		}
		requireSameBits(t, run, ref)
	}
}

// TestBitRunSetsStart: a BitRun as the first delivery must latch the stream
// start time, exactly like the first Bit() call.
func TestBitRunSetsStart(t *testing.T) {
	r := NewRecorder()
	r.BitRun(1234, []can.Level{can.Dominant, can.Recessive})
	if r.Start() != 1234 {
		t.Errorf("Start = %d, want 1234", r.Start())
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}
