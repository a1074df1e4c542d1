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
	rng := drawRNGs.Get().(*rand.Rand)
	defer drawRNGs.Put(rng)
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
		rng := getDrawRNG(seed)
		defer drawRNGs.Put(rng)
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
		rng := getDrawRNG(seed)
		for k := 0; k < 64; k++ {
			rng.Intn(2048)
		}
		drawRNGs.Put(rng)
	}); got != 0 {
		t.Errorf("pooled draw RNG: %v allocs per draw, want 0", got)
	}
}
