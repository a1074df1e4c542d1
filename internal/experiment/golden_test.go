package experiment

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"michican/internal/bus"
)

// goldenCfg is a short config so the differential runs stay fast; the bit
// streams still cover several complete bus-off episodes.
func goldenCfg(seed int64) Config {
	return Config{Rate: bus.Rate50k, Duration: 500 * time.Millisecond, Seed: seed}
}

// TestTable2GoldenTrace runs every Table-II scenario twice — exact per-bit
// stepping versus idle fast-forward — and requires the recorder tap output
// (every resolved bit) and the decoded rows to be identical. This is the
// tentpole's core claim: fast-forward does not change a single resolved bit.
func TestTable2GoldenTrace(t *testing.T) {
	for _, spec := range table2Specs() {
		exact := goldenCfg(1).Defaults()
		exact.Mode = ModeExact
		slowRows, slowTB, err := runTable2Scenario(exact, spec)
		if err != nil {
			t.Fatalf("exp %d exact: %v", spec.exp, err)
		}
		if got := slowTB.bus.FastForwardedBits(); got != 0 {
			t.Fatalf("exp %d exact path fast-forwarded %d bits", spec.exp, got)
		}

		fast := goldenCfg(1).Defaults()
		fastRows, fastTB, err := runTable2Scenario(fast, spec)
		if err != nil {
			t.Fatalf("exp %d fast-forward: %v", spec.exp, err)
		}
		// Experiment 2 (spoof of the defender's own ID, no restbus) keeps
		// the wire continuously busy — the two same-ID transmitters fight
		// bit-for-bit with no idle in between — so zero skipped bits is the
		// correct outcome there; every other scenario has idle stretches
		// (bus-off recoveries, inter-frame gaps) the fast path must catch.
		if spec.exp != 2 && fastTB.bus.FastForwardedBits() == 0 {
			t.Errorf("exp %d never took the fast path — the scenario should have idle stretches", spec.exp)
		}
		if !reflect.DeepEqual(slowTB.recorder.Bits(), fastTB.recorder.Bits()) {
			a, b := slowTB.recorder.Bits(), fastTB.recorder.Bits()
			i := 0
			for i < len(a) && i < len(b) && a[i] == b[i] {
				i++
			}
			t.Fatalf("exp %d: tap output diverges (len %d vs %d, first diff at bit %d)",
				spec.exp, len(a), len(b), i)
		}
		if !reflect.DeepEqual(slowRows, fastRows) {
			t.Errorf("exp %d: rows differ:\nexact: %+v\nfast:  %+v", spec.exp, slowRows, fastRows)
		}
	}
}

// TestFig6GoldenTrace is the same differential for the Fig. 6 scenario.
func TestFig6GoldenTrace(t *testing.T) {
	exact := Config{Seed: 1, Mode: ModeExact}
	slowRes, slowTB, err := fig6Scenario(exact)
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	fastRes, fastTB, err := fig6Scenario(Config{Seed: 1})
	if err != nil {
		t.Fatalf("fast-forward: %v", err)
	}
	if fastTB.bus.FastForwardedBits() == 0 {
		t.Error("fig6 never took the fast path — bus-off recovery should be pure idle")
	}
	if !reflect.DeepEqual(slowTB.recorder.Bits(), fastTB.recorder.Bits()) {
		t.Fatalf("fig6 tap output diverges (len %d vs %d)",
			slowTB.recorder.Len(), fastTB.recorder.Len())
	}
	if !reflect.DeepEqual(slowRes, fastRes) {
		t.Errorf("fig6 results differ:\nexact: %+v\nfast:  %+v", slowRes, fastRes)
	}
}

// TestParallelMatchesSerial asserts Table2 and Fig6 produce byte-identical
// results with Workers=1 (inline serial) and Workers=GOMAXPROCS (parallel
// pool) across three seeds — the runner's determinism contract.
func TestParallelMatchesSerial(t *testing.T) {
	parallel := runtime.GOMAXPROCS(0)
	for _, seed := range []int64{1, 7, 42} {
		serialCfg := goldenCfg(seed)
		serialCfg.Workers = 1
		parallelCfg := goldenCfg(seed)
		parallelCfg.Workers = parallel

		serialRows, err := Table2(serialCfg)
		if err != nil {
			t.Fatalf("seed %d serial Table2: %v", seed, err)
		}
		parallelRows, err := Table2(parallelCfg)
		if err != nil {
			t.Fatalf("seed %d parallel Table2: %v", seed, err)
		}
		if !reflect.DeepEqual(serialRows, parallelRows) {
			t.Errorf("seed %d: Table2 rows differ between 1 and %d workers", seed, parallel)
		}

		serialFig, err := Fig6(serialCfg)
		if err != nil {
			t.Fatalf("seed %d serial Fig6: %v", seed, err)
		}
		parallelFig, err := Fig6(parallelCfg)
		if err != nil {
			t.Fatalf("seed %d parallel Fig6: %v", seed, err)
		}
		if !reflect.DeepEqual(serialFig, parallelFig) {
			t.Errorf("seed %d: Fig6 results differ between 1 and %d workers", seed, parallel)
		}
	}
}

// TestDefenseComparisonParallelMatchesSerial covers the third ported
// experiment: three systems, identical rows at any worker count.
func TestDefenseComparisonParallelMatchesSerial(t *testing.T) {
	cfg := Config{Rate: bus.Rate50k, Duration: time.Second, Seed: 1}
	serial := cfg
	serial.Workers = 1
	serialRows, err := DefenseComparison(serial)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	parallelRows, err := DefenseComparison(cfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if !reflect.DeepEqual(serialRows, parallelRows) {
		t.Errorf("rows differ:\nserial:   %+v\nparallel: %+v", serialRows, parallelRows)
	}
}
