package experiment

import (
	"math"
	"math/rand"
	"testing"
)

// drawSourceMinDraws spans more than four wraps of the 607-entry register.
const drawSourceMinDraws = 2500

// drawSourceSeeds are the seeds at math/rand's normalisation edges (zero,
// negatives, multiples of 2³¹−1, the zero substitute, the int64 extremes)
// plus the study's own derived seeds.
func drawSourceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, 42,
		lehmerMod, -lehmerMod, 2 * lehmerMod, -2 * lehmerMod, 3*lehmerMod + 1, lehmerMod - 1, lehmerMod + 1,
		-lehmerMod + 1, -(1 << 31), 1 << 31,
		89482311, -89482311, lehmerMod + 89482311,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	}
	for i := 0; i < 300; i++ {
		seeds = append(seeds, DeriveSeed(7, i))
	}
	return seeds
}

// checkDrawStream compares n mixed Uint64 / Int63 / Intn draws of got
// against a fresh math/rand generator seeded with seed.
func checkDrawStream(t *testing.T, got *rand.Rand, seed int64, n int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	for k := 0; k < n; k++ {
		var g, w int64
		switch k % 4 {
		case 0:
			g, w = int64(got.Uint64()), int64(want.Uint64())
		case 1:
			g, w = got.Int63(), want.Int63()
		case 2:
			g, w = int64(got.Intn(2048)), int64(want.Intn(2048))
		default:
			// A bound near 2³¹ makes Int31n reject and redraw often.
			bound := 1<<30 + 1 + k
			g, w = int64(got.Intn(bound)), int64(want.Intn(bound))
		}
		if g != w {
			t.Fatalf("seed %d: draw %d = %d, math/rand gives %d", seed, k, g, w)
		}
	}
}

// TestDrawSourceMatchesMathRand re-seeds one pooled generator for every
// seed, so a stale register entry from the previous stream would show.
func TestDrawSourceMatchesMathRand(t *testing.T) {
	st := drawStates.Get().(*drawState)
	defer drawStates.Put(st)
	rng := st.rng
	for _, seed := range drawSourceSeeds() {
		rng.Seed(seed)
		checkDrawStream(t, rng, seed, drawSourceMinDraws)
	}
	// A stream cut short, then a fresh one on the same instance.
	rng.Seed(5)
	rng.Intn(10)
	rng.Seed(6)
	checkDrawStream(t, rng, 6, drawSourceMinDraws)
}

func FuzzDrawSource(f *testing.F) {
	for i, seed := range drawSourceSeeds() {
		f.Add(seed, uint16(i*97))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		st := getDrawState(seed)
		defer drawStates.Put(st)
		rng := st.rng
		// A short prefix first, so the checked stream runs on a re-seeded
		// instance.
		for k := 0; k < int(n)%64; k++ {
			rng.Uint64()
		}
		rng.Seed(seed)
		checkDrawStream(t, rng, seed, drawSourceMinDraws+int(n)%4096)
	})
}

// TestDrawRNGAllocs: a pooled draw generator costs no allocation per draw
// (rand.New(rand.NewSource(s)) costs two, 5.4 KB).
func TestDrawRNGAllocs(t *testing.T) {
	seed := int64(0)
	if got := testing.AllocsPerRun(1000, func() {
		seed++
		st := getDrawState(seed)
		for k := 0; k < 64; k++ {
			st.rng.Intn(2048)
		}
		drawStates.Put(st)
	}); got != 0 {
		t.Errorf("pooled draw RNG: %v allocs per draw, want 0", got)
	}
}

// TestDetectionDrawAllocatesNothing: once a draw state has built one FSM
// of a size, further draws of that size allocate nothing, and the whole
// study allocates a bounded handful (the result slice, the workers) rather
// than a few objects per draw. The race detector makes sync.Pool drop
// items at random, so the study-level count holds only without it.
func TestDetectionDrawAllocatesNothing(t *testing.T) {
	s := &drawState{rng: rand.New(new(drawSource))}
	for _, n := range []int{2, 64, 2048} {
		seed := int64(0)
		draw := func() {
			seed++
			s.rng.Seed(seed)
			if _, miss, err := s.draw(n); miss != nil || err != nil {
				t.Fatalf("N=%d seed %d: miss %v, err %v", n, seed, miss, err)
			}
		}
		draw()
		if got := testing.AllocsPerRun(100, draw); got != 0 {
			t.Errorf("N=%d: %v allocs per draw, want 0", n, got)
		}
	}
	if raceEnabled {
		return
	}
	if got := testing.AllocsPerRun(1, func() {
		if _, err := DetectionLatency(20000, 64, 7); err != nil {
			t.Fatal(err)
		}
	}); got >= 1000 {
		t.Errorf("DetectionLatency(20000, 64, 7): %v allocs, want < 1000", got)
	}
}
