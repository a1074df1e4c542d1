package forensics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/stats"
	"michican/internal/telemetry"
)

// FuzzIncidentJSON checks appendIncident against json.Marshal on random
// incidents: escapable and non-ASCII strings, detection-bit statistics
// across the float formatting cut-offs (-0, 1e-7, 1e21) and the values with
// no JSON form (NaN, ±Inf: the same error), and TEC and causality slices
// nil, empty and filled.
func FuzzIncidentJSON(f *testing.F) {
	f.Add("0x123", "attacker", "defender", int64(1000), int64(40000), 32, 5, 14.5, 0.5, 9.0, 11.0, uint8(3), uint8(2), false, "attacker", "tec")
	f.Add("0x<&>", "", " ", int64(-1), int64(0), 0, 0, math.Copysign(0, -1), 1e-7, 1e21, -1e21, uint8(0), uint8(0), true, "\xff\xfe", "a\"b\\c\n")
	f.Add("é", "x", "", int64(1<<62), int64(-5), -3, 1, math.NaN(), 0.0, 0.0, 0.0, uint8(1), uint8(0), false, "", "")
	f.Add("", "", "", int64(0), int64(0), 0, 0, 1.0, math.Inf(1), 0.0, 0.0, uint8(0), uint8(1), false, "n", "s")
	f.Add("0x064", "a", "d", int64(7), int64(8), 1, 1, 1e-6, 123456789.125, 1e20, 5e-324, uint8(2), uint8(5), true, "<", ">")
	f.Fuzz(func(t *testing.T, id, attacker, defender string, start, end int64, attempts, detections int,
		mean, sd, lo, hi float64, nTEC, nChain uint8, empty bool, node, step string) {
		inc := Incident{
			IDHex: id, Start: start, End: end, Attempts: attempts,
			Attacker: attacker, Defender: defender,
			Detections: detections, FirstDetectAt: start + 12,
			DetectionBits:  stats.Summary{N: detections, Mean: mean, StdDev: sd, Min: lo, Max: hi},
			Counterattacks: attempts, PullBitsTotal: 7 * int64(attempts), FramesLeaked: detections % 3,
			BusOffAt: end - 1, RecoveredAt: -1, Eradicated: empty,
		}
		if empty {
			inc.TEC, inc.Causality = []TECStep{}, []ChainLink{}
		}
		for i := range int(nTEC % 40) {
			inc.TEC = append(inc.TEC, TECStep{At: start + int64(i), Value: int64(8 * (i + 1)), Prev: int64(8 * i)})
		}
		for i := range int(nChain % 8) {
			inc.Causality = append(inc.Causality, ChainLink{At: end - int64(i), Node: node, Step: step})
		}
		ref, refErr := json.Marshal(inc)
		got, err := EncodeIncident(inc)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("error %v, json.Marshal's %v", err, refErr)
		}
		if err != nil {
			if err.Error() != refErr.Error() {
				t.Fatalf("error %q, json.Marshal's %q", err, refErr)
			}
			return
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("payload\n got %s\nwant %s", got, ref)
		}
	})
}

// TestEncodeIncidentsAllocatesPerBatch: a batch encodes into one buffer,
// and every payload is the incident's own encoding.
func TestEncodeIncidentsAllocatesPerBatch(t *testing.T) {
	incs := make([]Incident, 500)
	for i := range incs {
		inc := &incs[i]
		inc.IDHex, inc.Attacker, inc.Defender = "0x173", "attacker", "defender"
		inc.Start, inc.End, inc.Attempts = int64(i)*5000, int64(i)*5000+4000, FullCampaignAttempts
		inc.DetectionBits = stats.Summary{N: 32, Mean: 9, StdDev: 0.25, Min: 9, Max: 10}
		for s := range FullCampaignAttempts {
			inc.TEC = append(inc.TEC, TECStep{At: inc.Start + int64(s)*100, Value: int64(8 * (s + 1)), Prev: int64(8 * s)})
		}
		inc.Causality = []ChainLink{{inc.Start, "attacker", "sof"}, {inc.Start + 12, "defender", "detect"}}
	}
	payloads, err := EncodeIncidents(incs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range incs {
		ref, _ := json.Marshal(incs[i])
		if !bytes.Equal(payloads[i], ref) {
			t.Fatalf("payload %d\n got %s\nwant %s", i, payloads[i], ref)
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := EncodeIncidents(incs); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Fatalf("encoding %d incidents allocates %v times, want at most 3", len(incs), n)
	}
}

// TestStepTextsMatchFormatting pins the table- and append-built incident
// texts to the fmt forms they replace: IDHex for every base ID and a spread
// of extended ones, and the numbered and error causality steps in and past
// their tables.
func TestStepTextsMatchFormatting(t *testing.T) {
	ids := []int64{0x800, 0xFFF, 0x1000, 0x18DAF110, int64(can.MaxExtID)}
	for id := int64(0); id <= int64(can.MaxID); id++ {
		ids = append(ids, id)
	}
	for _, id := range ids {
		if got, want := idHex(id), fmt.Sprintf("0x%03X", id); got != want {
			t.Fatalf("idHex(%d) = %q, want %q", id, got, want)
		}
	}
	for n := int64(-1); n <= 40; n++ {
		if got, want := numberedStep(detectSteps[:], "detect@bit", "", n), fmt.Sprintf("detect@bit%d", n); got != want {
			t.Fatalf("detect step %d = %q, want %q", n, got, want)
		}
		if got, want := numberedStep(pullSteps[:], "counterattack(", " bits)", n), fmt.Sprintf("counterattack(%d bits)", n); got != want {
			t.Fatalf("pull step %d = %q, want %q", n, got, want)
		}
	}
	for kind := int64(0); kind <= int64(controller.AckError)+1; kind++ {
		if got, want := errorStep(kind), fmt.Sprintf("error(%s)", telemetry.ErrorKindName(kind)); got != want {
			t.Fatalf("error step %d = %q, want %q", kind, got, want)
		}
	}
}
