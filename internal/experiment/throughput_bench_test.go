package experiment

import (
	"fmt"
	"testing"
)

// BenchmarkThroughputCell measures single cells of the load × mode grid
// through the test harness, so `go test -bench ThroughputCell -cpuprofile`
// profiles exactly one cell's steady state (michican-bench -json measures
// all cells in one process, which blurs profiles).
func BenchmarkThroughputCell(b *testing.B) {
	for _, load := range []float64{0.30, 0.60} {
		for _, mode := range []SteppingMode{ModeContendFF, ModeSpliceFF} {
			b.Run(fmt.Sprintf("load=%.0f%%/%s", load*100, mode), func(b *testing.B) {
				bb, err := ThroughputScenario(load, mode)
				if err != nil {
					b.Fatal(err)
				}
				bb.Run(100_000) // warm-up: phase offsets settle, caches populate
				const bitsPerOp = 10_000
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bb.Run(bitsPerOp)
				}
				b.SetBytes(bitsPerOp)
			})
		}
	}
}
