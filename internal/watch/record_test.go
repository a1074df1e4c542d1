package watch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"michican/internal/controller"
	"michican/internal/forensics"
	"michican/internal/telemetry"
)

// TestAlertsMaterializeAsBefore drives every rule through the engine's own
// paths and checks the materialized log against Alert values built the way
// the engine built them before it kept compact records: reasons by
// fmt.Sprintf of the same sentences, evidence as maps, nil on resolves.
func TestAlertsMaterializeAsBefore(t *testing.T) {
	hub := telemetry.NewHub()
	w := New(hub, nil, Config{LadderWindowBits: 1000, LadderWarmupWindows: 1})
	def := hub.Probe("defender")
	bus := hub.Probe("bus")

	pass := int64(controller.PassiveThreshold) + 1
	def.Emit(10, telemetry.EvTEC, pass, 0)
	def.Emit(20, telemetry.EvBusOff, 0, 0)
	def.Emit(30, telemetry.EvTEC, 0, 0)
	def.Emit(31, telemetry.EvRecover, 0, 0)

	bus.Emit(1, telemetry.EvFFSpan, 900, 0)
	bus.Emit(1001, telemetry.EvFFSpan, 100, 0)
	bus.Emit(2001, telemetry.EvFFSpan, 900, 0)
	bus.Emit(3001, telemetry.EvFFSpan, 900, 0)

	bad := engagedIncident()
	bad.IDHex = "0x<&>"
	bad.FirstDetectAt = bad.Start + 30
	bad.FramesLeaked = 3
	bad.Eradicated = false
	bad.BusOffAt = -1
	w.onIncident(bad, false, -1)
	w.onIncident(engagedIncident(), false, -1)
	short := engagedIncident()
	short.Attempts = 3
	short.Eradicated = false
	short.BusOffAt = -1
	w.onIncident(short, false, -1)

	type tr struct {
		rule     Rule
		sev      Severity
		fire     bool
		t        int64
		reason   string
		evidence map[string]int64
	}
	full := int64(forensics.FullCampaignAttempts)
	want := []tr{
		{RuleDefenderConfinement, SevWarning, true, 10, fmt.Sprintf("defender error-passive (TEC=%d REC=%d)", pass, 0),
			map[string]int64{"tec": pass, "rec": 0, "level": 1}},
		{RuleDefenderConfinement, SevCritical, true, 20, "defender bus-off: fault confinement breached",
			map[string]int64{"tec": pass, "rec": 0, "level": 2}},
		{RuleDefenderConfinement, SevCritical, false, 31, fmt.Sprintf("defender error-active again (TEC=%d REC=%d)", 0, 0), nil},
		{RuleLadderCollapse, SevWarning, true, 2000,
			fmt.Sprintf("fast-path hit rate %.2f collapsed below %.2f of baseline %.2f", 0.1, 0.5, 0.9),
			map[string]int64{"hit_rate_pct": 10, "baseline_pct": 90}},
		{RuleLadderCollapse, SevWarning, false, 3000, fmt.Sprintf("fast-path hit rate %.2f recovered", 0.9), nil},
		{RuleCampaign, SevInfo, true, 1000, fmt.Sprintf("spoofing campaign on %s engaged (%d attempts)", "0x<&>", full),
			map[string]int64{"attempts": full, "detections": full, "leaked": 3}},
		{RuleCampaign, SevInfo, false, 40000, fmt.Sprintf("campaign on %s closed: %s", "0x<&>", "full campaign NOT eradicated"), nil},
		{RuleDetectionLatency, SevWarning, true, 1000, fmt.Sprintf("detection on %s took %d bits (SLO <= %d)", "0x<&>", 30, 19),
			map[string]int64{"latency_bits": 30}},
		{RuleFrameLeak, SevCritical, true, 1000, fmt.Sprintf("%d attacker frame(s) of %s leaked during the campaign", 3, "0x<&>"),
			map[string]int64{"frames": 3}},
		{RuleEradication, SevCritical, true, 40000, fmt.Sprintf("full campaign on %s (%d attempts) closed without bus-off", "0x<&>", full),
			map[string]int64{"attempts": full}},
		{RuleCampaign, SevInfo, true, 1000, fmt.Sprintf("spoofing campaign on %s engaged (%d attempts)", "0x123", full),
			map[string]int64{"attempts": full, "bus_off_at": 39000, "detections": full, "leaked": 0}},
		{RuleCampaign, SevInfo, false, 40000, fmt.Sprintf("campaign on %s closed: %s", "0x123", "attacker eradicated"), nil},
		{RuleDetectionLatency, SevWarning, false, 40000, fmt.Sprintf("detection on %s back inside the window (%d bits)", "0x123", 14), nil},
		{RuleFrameLeak, SevCritical, false, 40000, fmt.Sprintf("campaign on %s leaked nothing", "0x123"), nil},
		{RuleEradication, SevCritical, false, 39000, fmt.Sprintf("attacker on %s driven bus-off after %d attempts", "0x123", full), nil},
		{RuleCampaign, SevInfo, true, 1000, fmt.Sprintf("spoofing campaign on %s engaged (%d attempts)", "0x123", 3),
			map[string]int64{"attempts": 3, "detections": full, "leaked": 0}},
		{RuleCampaign, SevInfo, false, 40000, fmt.Sprintf("campaign on %s closed: %s", "0x123", "attacker abandoned"), nil},
	}
	got := w.Alerts()
	if len(got) != len(want) {
		t.Fatalf("%d transitions, want %d: %+v", len(got), len(want), got)
	}
	for i, x := range want {
		state := "resolve"
		if x.fire {
			state = "fire"
		}
		a := Alert{Seq: int64(i), Rule: x.rule.String(), RuleID: int(x.rule), Severity: x.sev.String(),
			State: state, Time: x.t, Reason: x.reason, Evidence: x.evidence}
		if !reflect.DeepEqual(got[i], a) {
			t.Errorf("transition %d:\n got %+v\nwant %+v", i, got[i], a)
		}
	}
	payloads, err := w.EncodeAlertLog()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range got {
		ref, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payloads[i], ref) {
			t.Errorf("payload %d:\n got %s\nwant %s", i, payloads[i], ref)
		}
		back, err := DecodeAlert(payloads[i])
		if err != nil || !reflect.DeepEqual(back, a) {
			t.Errorf("payload %d decodes to %+v, %v", i, back, err)
		}
	}
	snap := w.Snapshot()
	if !reflect.DeepEqual(snap.Log, got) || len(snap.Active) != 0 {
		t.Fatalf("snapshot log differs from Alerts, or leaves %d active", len(snap.Active))
	}
}

// evidenceSets are every evidence set a rule fires with, keys ascending.
var evidenceSets = [][]evKey{
	{keyLevel, keyRec, keyTec},
	{keyBaselinePct, keyHitRatePct},
	{keyAttempts, keyDetections, keyLeaked},
	{keyAttempts, keyBusOffAt, keyDetections, keyLeaked},
	{keyLatencyBits},
	{keyFrames},
	{keyAttempts},
}

func TestEvidenceKeysSorted(t *testing.T) {
	if !slices.IsSorted(evKeyNames[:]) {
		t.Fatalf("evidence key names not in constant order: %v", evKeyNames)
	}
}

// sprintfArgs turns a reason's arguments into fmt.Sprintf's, by verb.
func sprintfArgs(y why) []any {
	var out []any
	f, arg := reasonFormats[y.reason], 0
	for {
		i := strings.IndexByte(f, '%')
		if i < 0 {
			return out
		}
		f = f[i+1:]
		switch f[0] {
		case 's':
			out = append(out, y.id)
		case 'd':
			out = append(out, y.args[arg])
			arg++
		default:
			out = append(out, math.Float64frombits(uint64(y.args[arg])))
			arg++
		}
	}
}

// FuzzAlertJSON checks the record and Alert encoders against json.Marshal:
// random records of every reason and evidence set (arguments taken as ints
// and as floats, NaN and infinities included), escapable and non-ASCII
// strings, and free-form evidence maps, nil and empty.
func FuzzAlertJSON(f *testing.F) {
	f.Add(uint8(0), uint8(1), false, int64(10), uint8(0), "0x123", int64(128), int64(0), int64(0), uint8(0), int64(1), "k", false)
	f.Add(uint8(5), uint8(1), false, int64(-1), uint8(3), "0x<&>", floatArg(0.1), floatArg(math.Copysign(0, -1)), floatArg(1e21), uint8(1), int64(-7), "a<b", true)
	f.Add(uint8(1), uint8(2), true, int64(1<<40), uint8(9), "\u2028\xff\"\\\n", int64(-30), int64(19), int64(0), uint8(3), int64(39000), "é\u2029", false)
	f.Add(uint8(4), uint8(0), false, int64(0), uint8(4), "", floatArg(math.NaN()), floatArg(math.Inf(-1)), floatArg(1e-7), uint8(6), int64(0), "", true)
	f.Fuzz(func(t *testing.T, rule, sev uint8, resolve bool, tm int64, reason uint8, id string,
		a0, a1, a2 int64, set uint8, v int64, key string, emptyMap bool) {
		r := record{
			t:       tm,
			why:     because(reasonID(reason%uint8(numReasons)), id, a0, a1, a2),
			rule:    Rule(rule % uint8(numRules)),
			sev:     Severity(sev % 3),
			resolve: resolve,
		}
		if !resolve {
			for i, k := range evidenceSets[int(set)%len(evidenceSets)] {
				if i == 0 {
					r.ev = evidenceOf(k, v)
				} else {
					r.ev = r.ev.and(k, v*int64(i+1))
				}
			}
		}
		a := r.alert(7)
		if want := fmt.Sprintf(reasonFormats[r.reason], sprintfArgs(r.why)...); a.Reason != want {
			t.Fatalf("reason %q, Sprintf %q", a.Reason, want)
		}
		ref, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.appendJSON(nil, 7); !bytes.Equal(got, ref) {
			t.Fatalf("record payload\n got %s\nwant %s", got, ref)
		}
		// Free-form alerts: arbitrary strings everywhere, map keys too.
		a.Rule, a.Severity, a.State = key, id, key+id
		if emptyMap {
			a.Evidence = map[string]int64{}
		} else {
			a.Evidence = map[string]int64{key: v, id: a0, key + "z": a1}
		}
		ref, err = json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendAlert(nil, &a); !bytes.Equal(got, ref) {
			t.Fatalf("alert payload\n got %s\nwant %s", got, ref)
		}
	})
}

// TestAlertPathAllocatesNothing: on a warm engine, firing and resolving a
// rule builds no string and no map; only the log's own growth allocates,
// amortized to nothing.
func TestAlertPathAllocatesNothing(t *testing.T) {
	w := New(telemetry.NewHub(), nil, Config{})
	inc := engagedIncident()
	inc.FirstDetectAt = inc.Start + 30
	inc.FramesLeaked = 2
	w.onIncident(inc, false, -1)
	w.onIncident(engagedIncident(), false, -1)
	w.verdicts = make([]IncidentVerdict, 0, 4096)
	if n := testing.AllocsPerRun(1000, func() {
		w.mu.Lock()
		w.fire(RuleDetectionLatency, SevWarning, 1, because(reasonDetectionSlow, inc.IDHex, 30, 19), evidenceOf(keyLatencyBits, 30))
		w.resolveRule(RuleDetectionLatency, 2, because(reasonDetectionInside, inc.IDHex, 14))
		w.resolveRule(RuleFrameLeak, 3, because(reasonNothingLeaked, inc.IDHex)) // inactive: no-op
		w.mu.Unlock()
	}); n != 0 {
		t.Fatalf("fire/resolve allocates %v times per round", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		w.onIncident(inc, false, -1)
	}); n != 0 {
		t.Fatalf("an engaged incident's alerts allocate %v times", n)
	}
}

// TestEncodeAlertLogAllocatesPerLog: a 1,000-alert log encodes into one
// buffer, not one per payload.
func TestEncodeAlertLogAllocatesPerLog(t *testing.T) {
	w := New(telemetry.NewHub(), nil, Config{})
	bad := engagedIncident()
	bad.FirstDetectAt = bad.Start + 30
	for len(w.log) < 1000 {
		w.onIncident(bad, false, -1)
		w.onIncident(engagedIncident(), false, -1)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := w.EncodeAlertLog(); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Fatalf("encoding %d alerts allocates %v times, want at most 3", len(w.log), n)
	}
}
