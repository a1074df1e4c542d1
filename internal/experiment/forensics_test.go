package experiment

import (
	"testing"
	"time"
)

// TestTable2ForensicsParity regenerates every Table-II row from forensics
// incidents alone and requires bit-for-bit equality with the trace-derived
// rows, in every stepping mode. Equality of Mean/Std/Max durations
// implies the incident boundaries (SOF of the first destroyed attempt, last
// busy bit of the final error episode) land on exactly the bits the wire
// decoder assigns.
func TestTable2ForensicsParity(t *testing.T) {
	exps := []int{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		exps = []int{1, 2, 5}
	}
	for _, exp := range exps {
		for _, mode := range SteppingModes {
			cfg := Config{Duration: 500 * time.Millisecond, Mode: mode}
			traceRows, incidentRows, err := Table2Forensics(cfg, exp)
			if err != nil {
				t.Fatalf("exp %d %s: %v", exp, mode, err)
			}
			if len(traceRows) != len(incidentRows) {
				t.Fatalf("exp %d %s: %d trace rows vs %d incident rows",
					exp, mode, len(traceRows), len(incidentRows))
			}
			for i := range traceRows {
				if traceRows[i] != incidentRows[i] {
					t.Errorf("exp %d %s: row %d differs\ntrace:    %+v\nincident: %+v",
						exp, mode, i, traceRows[i], incidentRows[i])
				}
			}
		}
	}
}

// TestComparisonForensicsParity derives the Table-I MichiCAN row (detection
// latency, leaked frames, bus-off time) from the forensics engine's view of
// the run and requires field-for-field equality with the hand-instrumented
// row computed from the same simulation.
func TestComparisonForensicsParity(t *testing.T) {
	hand, derived, err := ComparisonForensics(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if hand != derived {
		t.Errorf("rows differ\nhand:     %+v\nforensics: %+v", hand, derived)
	}
	if !hand.Eradicated || hand.DetectionBits < 0 {
		t.Errorf("MichiCAN row not meaningful: %+v", hand)
	}
}
