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

// BenchmarkAttackedVehicle measures one attacked fleet vehicle end to end:
// spoof, DoS and toggle at 30% load on the benchmark's vehicle-0 spec, built
// and run for 2^20 bits with forensics and watch on and no store — the unit
// of work that dominates an attacked fleet. exact_% is the share of bits
// exact-stepped, which is where attacked traffic spends its time.
func BenchmarkAttackedVehicle(b *testing.B) {
	for _, attack := range []FleetAttack{FleetAttackSpoof, FleetAttackDoS, FleetAttackToggle} {
		b.Run(string(attack), func(b *testing.B) {
			b.ReportAllocs()
			var exact, total int64
			for i := 0; i < b.N; i++ {
				spec := FleetSpecAt(1, 0, 1<<20, false)
				spec.Attack, spec.Load, spec.Watch = attack, 0.30, true
				v, err := NewFleetVehicle(spec)
				if err != nil {
					b.Fatal(err)
				}
				v.Advance(spec.HorizonBits)
				v.Finalize()
				total += int64(v.bus.Now())
				exact += int64(v.bus.Now()) - v.bus.FastForwardedBits()
			}
			b.ReportMetric(100*float64(exact)/float64(total), "exact_%")
		})
	}
}
