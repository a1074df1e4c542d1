package can

// PackLevels ORs a span of levels into a bit-packed word buffer starting at
// bit offset off: bit i of the stream (word i/64, bit i%64) is set when
// levels[i] is recessive. Destination bits must be zero on entry — the
// caller provides a zeroed buffer — so wired-AND over several packed streams
// is plain word-wise AND. The packing matches trace.Recorder's storage
// (set bit = recessive), so both share this routine.
func PackLevels(words []uint64, off int, levels []Level) {
	i := 0
	// Head: fill the partially occupied word bit by bit.
	for ; i < len(levels) && (off+i)&63 != 0; i++ {
		words[(off+i)>>6] |= uint64(levels[i]&1) << ((off + i) & 63)
	}
	// Body: whole words, eight bits per iteration step kept simple — the
	// compiler unrolls the inner loop well and spans are short (≤ ~130 bits).
	for ; i+64 <= len(levels); i += 64 {
		var w uint64
		for j := 0; j < 64; j++ {
			w |= uint64(levels[i+j]&1) << j
		}
		words[(off+i)>>6] = w
	}
	// Tail.
	for ; i < len(levels); i++ {
		words[(off+i)>>6] |= uint64(levels[i]&1) << ((off + i) & 63)
	}
}

// dominantRunArr backs DominantRun: Dominant is the zero Level, so the zero
// array is all-dominant. It is never written, so every run shares it without
// an allocation.
var dominantRunArr [256]Level

// DominantRun returns a read-only slice of n dominant levels (n ≤ 256,
// longer runs are clamped). Error flags and counterattack pulls commit such
// runs to the contested-window fast path; callers must not modify the
// returned slice.
func DominantRun(n int) []Level {
	if n > len(dominantRunArr) {
		n = len(dominantRunArr)
	}
	if n < 0 {
		n = 0
	}
	return dominantRunArr[:n]
}
