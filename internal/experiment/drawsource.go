package experiment

import (
	"math/rand"
	"sync"

	"michican/internal/fsm"
)

// math/rand's additive lagged-Fibonacci generator and the Lehmer generator
// it seeds from (x ← 48271·x mod 2³¹−1).
const (
	rngLen    = 607
	rngTap    = 273
	rngMask   = 1<<63 - 1
	lehmerMod = 1<<31 - 1
	lehmerMul = 48271
	// lehmerWarmup Lehmer steps precede the first register entry, and each
	// entry takes three.
	lehmerWarmup = 20
)

var (
	// lehmerPow[n] = 48271ⁿ mod 2³¹−1, so Lehmer step n from seed s is
	// s·lehmerPow[n] mod 2³¹−1: any step in O(1), no chain to walk.
	lehmerPow [lehmerWarmup + 1 + 3*rngLen]uint64
	// rngCooked is math/rand's per-entry seeding constant, recovered below
	// from its public output rather than copied.
	rngCooked [rngLen]int64
)

func init() {
	lehmerPow[0] = 1
	for n := 1; n < len(lehmerPow); n++ {
		lehmerPow[n] = mulModLehmer(lehmerPow[n-1], lehmerMul)
	}
	// The first rngLen outputs of a seeded source determine its initial
	// register. Draw k (from 0) adds the tap at rngLen−1−k to the feed at
	// rngLen−rngTap−1−k (mod rngLen) and stores the sum in the feed, so the
	// tap of draw k ≥ rngTap holds what draw k−rngTap output. The taps of
	// the first rngTap draws still hold initial entries, which the first
	// loop below has already recovered as feeds of later draws.
	const probe = 1
	src := rand.NewSource(probe).(rand.Source64)
	var out, reg [rngLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	feed := func(k int) int { return (2*rngLen - rngTap - 1 - k) % rngLen }
	for k := rngTap; k < rngLen; k++ {
		reg[feed(k)] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		reg[feed(k)] = out[k] - reg[rngLen-1-k]
	}
	s := normalizeSeed(probe)
	for i := range rngCooked {
		rngCooked[i] = reg[i] ^ lehmerEntry(s, i)
	}
}

// mulModLehmer returns a·b mod 2³¹−1 for a, b < 2³¹.
func mulModLehmer(a, b uint64) uint64 {
	p := a * b
	p = p&lehmerMod + p>>31
	p = p&lehmerMod + p>>31
	if p >= lehmerMod {
		p -= lehmerMod
	}
	return p
}

// normalizeSeed maps a seed into [1, 2³¹−2] exactly as math/rand does.
func normalizeSeed(seed int64) uint64 {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// lehmerEntry is register entry i before the cooked XOR: Lehmer steps
// 21+3i, 22+3i and 23+3i from seed s, packed at bit 40, 20 and 0.
func lehmerEntry(s uint64, i int) int64 {
	p := lehmerPow[lehmerWarmup+1+3*i:]
	return int64(mulModLehmer(s, p[0]))<<40 ^ int64(mulModLehmer(s, p[1]))<<20 ^ int64(mulModLehmer(s, p[2]))
}

// drawSource is a rand.Source64 whose stream is bit-identical to
// rand.NewSource(seed)'s for every seed and draw count, but whose Seed is
// O(1): it only records the seed, and each register entry is computed on
// its first read. A detection draw reads about 70 of the 607 entries, so it
// skips nearly all of math/rand's 1,841-step seeding.
type drawSource struct {
	tap, feed int
	seed      uint64
	filled    [(rngLen + 63) / 64]uint64
	vec       [rngLen]int64
}

func (r *drawSource) Seed(seed int64) {
	r.tap, r.feed = 0, rngLen-rngTap
	r.seed = normalizeSeed(seed)
	r.filled = [len(r.filled)]uint64{}
}

// at returns register entry i, computing it on first read.
func (r *drawSource) at(i int) int64 {
	w, b := i>>6, uint64(1)<<(i&63)
	if r.filled[w]&b == 0 {
		r.filled[w] |= b
		r.vec[i] = lehmerEntry(r.seed, i) ^ rngCooked[i]
	}
	return r.vec[i]
}

func (r *drawSource) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.at(r.feed) + r.at(r.tap)
	r.vec[r.feed] = x
	return uint64(x)
}

func (r *drawSource) Int63() int64 { return int64(r.Uint64() & rngMask) }

// drawState is one pooled worker's storage for the detection study and
// sweep: the generator plus the IVN, 𝔻 and FSM each draw builds in place,
// so a draw neither allocates nor zeroes a 5 KB register and the node
// array keeps the capacity earlier draws grew it to.
type drawState struct {
	rng     *rand.Rand
	ivn     fsm.IVN
	set     fsm.DetectionSet
	machine fsm.FSM
}

var drawStates = sync.Pool{New: func() any { return &drawState{rng: rand.New(new(drawSource))} }}

// getDrawState returns a pooled drawState whose generator produces exactly
// the stream of rand.New(rand.NewSource(seed)). Return it with
// drawStates.Put.
func getDrawState(seed int64) *drawState {
	s := drawStates.Get().(*drawState)
	s.rng.Seed(seed)
	return s
}
