package experiment

import (
	"fmt"
	"testing"
	"time"

	"michican/internal/forensics"
	"michican/internal/trace"
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

// fleetParityDivergence is the one known disagreement between forensics and
// the trace decoder on the fleet's attack mixes. In the spoof@30% vehicle the
// restbus's retransmission of 0x0CD goes unacknowledged (the defender is
// bus-off) and its error-passive transmitter signals the ACK error at bit
// 446,388 invisibly. Forensics' unacknowledged-frame rule then projects a
// complete frame through bit 446,396 and marks the SOF at 446,396 stray. But
// that SOF is the defender's own 0x173, sent the moment its bus-off recovery
// completes; it lands on the projected last EOF bit, so the decoder reads
// the restbus frame as an error episode ending at its last dominant bit
// (446,383), accepts the SOF after 12 recessive bits, and counts the
// defender's ACK-errored attempt as a one-attempt episode. Forensics is the
// wrong side: its projection ignores a dominant bit inside the tail.
var fleetParityDivergence = map[string]Episode{
	"spoof@30%/0x173": {ID: DefenderID, Attempts: 1, Start: 446396, End: 446454},
}

// TestFleetForensicsParity compares forensics incidents with the trace
// decoder's episodes on the fleet's own attack mixes — spoof, DoS and toggle
// at 2, 30 and 60% load on fleet seed 1's vehicle-0 spec, with watch on —
// on Start, End and Attempts. The decoder's only extra episode is the pinned
// divergence above, so a fix or any new divergence fails the test.
func TestFleetForensicsParity(t *testing.T) {
	attacks := []FleetAttack{FleetAttackSpoof, FleetAttackDoS, FleetAttackToggle}
	loads := []float64{0.02, 0.30, 0.60}
	if testing.Short() {
		attacks, loads = attacks[:1], loads[1:2] // the pinned cell
	}
	for _, attack := range attacks {
		for _, load := range loads {
			spec := FleetSpecAt(1, 0, 1<<20, true)
			spec.Attack, spec.Load, spec.Watch = attack, load, true
			v, err := NewFleetVehicle(spec)
			if err != nil {
				t.Fatal(err)
			}
			v.Advance(spec.HorizonBits)
			v.Finalize()
			end := v.bus.Now()
			events := trace.Decode(v.recorder.Bits(), v.recorder.Start())
			for _, id := range fleetAttackIDs(attack) {
				cell := fmt.Sprintf("%s@%.0f%%/%#03x", attack, load*100, uint32(id))
				eps := completeEpisodes(episodesOf(events, id), end)
				if pin, ok := fleetParityDivergence[cell]; ok {
					kept := eps[:0:0]
					for _, ep := range eps {
						if ep != pin {
							kept = append(kept, ep)
						}
					}
					if len(kept) != len(eps)-1 {
						t.Errorf("%s: the pinned divergence %+v is gone; update fleetParityDivergence", cell, pin)
					}
					eps = kept
				}
				incs := forensics.Complete(v.stack.Forensics.IncidentsOf(id), int64(end))
				if len(eps) != len(incs) {
					t.Errorf("%s: %d decoder episodes vs %d incidents", cell, len(eps), len(incs))
				}
				for i := 0; i < len(eps) && i < len(incs); i++ {
					ep, inc := eps[i], incs[i]
					if int64(ep.Start) != inc.Start || int64(ep.End) != inc.End || ep.Attempts != inc.Attempts {
						t.Errorf("%s: episode %d: decoder %d-%d with %d attempts, forensics %d-%d with %d",
							cell, i, ep.Start, ep.End, ep.Attempts, inc.Start, inc.End, inc.Attempts)
						break
					}
				}
			}
		}
	}
}
