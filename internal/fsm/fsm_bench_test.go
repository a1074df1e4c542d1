package fsm

import (
	"math/rand"
	"testing"
)

// benchIVNs is a fixed mix of random IVNs with N from 2 to 64 ECUs — the
// detection study's range — each paired with a random ECU index.
func benchIVNs(b *testing.B) ([]*IVN, []int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	ivns := make([]*IVN, 64)
	idx := make([]int, len(ivns))
	for k := range ivns {
		n := 2 + k%63
		v, err := RandomIVN(rng, n)
		if err != nil {
			b.Fatal(err)
		}
		ivns[k], idx[k] = v, rng.Intn(n)
	}
	return ivns, idx
}

func benchSets(b *testing.B) []*DetectionSet {
	b.Helper()
	ivns, idx := benchIVNs(b)
	sets := make([]*DetectionSet, len(ivns))
	for k, v := range ivns {
		d, err := NewDetectionSet(v, idx[k])
		if err != nil {
			b.Fatal(err)
		}
		sets[k] = d
	}
	return sets
}

// Sinks keep the compiler from discarding the measured calls.
var (
	setSink   *DetectionSet
	fsmSink   *FSM
	statsSink DetectionStats
)

// BenchmarkNewDetectionSet measures building 𝔻 per Def. IV.4.
func BenchmarkNewDetectionSet(b *testing.B) {
	ivns, idx := benchIVNs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(ivns)
		d, err := NewDetectionSet(ivns[k], idx[k])
		if err != nil {
			b.Fatal(err)
		}
		setSink = d
	}
}

// BenchmarkBuild measures generating the FSM tree from 𝔻.
func BenchmarkBuild(b *testing.B) {
	sets := benchSets(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fsmSink = Build(sets[i%len(sets)])
	}
}

// BenchmarkStats measures the exhaustive 2048-ID verification of one FSM.
func BenchmarkStats(b *testing.B) {
	sets := benchSets(b)
	machines := make([]*FSM, len(sets))
	for k, d := range sets {
		machines[k] = Build(d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(sets)
		st, err := machines[k].Stats(sets[k])
		if err != nil {
			b.Fatal(err)
		}
		statsSink = st
	}
}
