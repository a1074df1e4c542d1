package watch

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"michican/internal/controller"
	"michican/internal/forensics"
	"michican/internal/telemetry"
)

// engagedIncident is a canonical fully-engaged, eradicated campaign.
func engagedIncident() forensics.Incident {
	return forensics.Incident{
		ID: 0x123, IDHex: "0x123",
		Start: 1000, End: 40000,
		Attempts:      forensics.FullCampaignAttempts,
		Detections:    forensics.FullCampaignAttempts,
		FirstDetectAt: 1014,
		Eradicated:    true,
		BusOffAt:      39000,
		FramesLeaked:  0,
	}
}

func TestEvaluateIncidentVerdicts(t *testing.T) {
	cfg := Config{}

	v := EvaluateIncident(engagedIncident(), true, 200000, cfg)
	if !v.Engaged || v.InProgress {
		t.Fatalf("engaged closed incident misclassified: %+v", v)
	}
	if v.DetectionLatencyBits != 14 || !v.DetectionOK {
		t.Fatalf("detection latency: got %d ok=%v", v.DetectionLatencyBits, v.DetectionOK)
	}
	if !v.EradicationOK || !v.LeakFree {
		t.Fatalf("eradication/leak: %+v", v)
	}

	// Late detection violates the SLO window.
	late := engagedIncident()
	late.FirstDetectAt = late.Start + 25
	v = EvaluateIncident(late, false, -1, cfg)
	if v.DetectionOK || v.DetectionLatencyBits != 25 {
		t.Fatalf("late detection should violate: %+v", v)
	}

	// A benign fight (no FSM verdicts) is never engaged.
	benign := engagedIncident()
	benign.Detections = 0
	benign.FirstDetectAt = -1
	v = EvaluateIncident(benign, true, 200000, cfg)
	if v.Engaged {
		t.Fatalf("unengaged incident scored: %+v", v)
	}

	// Full campaign without bus-off fails the eradication SLO ...
	fail := engagedIncident()
	fail.Eradicated = false
	fail.BusOffAt = -1
	v = EvaluateIncident(fail, true, 200000, cfg)
	if v.EradicationOK {
		t.Fatalf("full un-eradicated campaign should fail: %+v", v)
	}
	// ... but an abandoned partial campaign does not.
	partial := fail
	partial.Attempts = 5
	partial.Detections = 5
	v = EvaluateIncident(partial, true, 200000, cfg)
	if !v.EradicationOK {
		t.Fatalf("abandoned partial campaign is not a defense failure: %+v", v)
	}

	// A trailing partial campaign within the edge margin is in progress.
	edge := partial
	edge.End = 199990
	v = EvaluateIncident(edge, true, 200000, cfg)
	if !v.InProgress {
		t.Fatalf("recording-edge incident should be in progress: %+v", v)
	}

	leak := engagedIncident()
	leak.FramesLeaked = 2
	v = EvaluateIncident(leak, true, 200000, cfg)
	if v.LeakFree {
		t.Fatalf("leaked incident marked leak-free: %+v", v)
	}
}

func TestEngineIncidentAlertsAndSLO(t *testing.T) {
	hub := telemetry.NewHub()
	var alerts []telemetry.Event
	hub.Subscribe(func(ev telemetry.Event) {
		if ev.Kind == telemetry.EvAlert {
			alerts = append(alerts, ev)
		}
	})
	w := New(hub, nil, Config{})

	// A clean eradicated campaign: campaign fire+resolve, detection /
	// leak resolves are no-ops (nothing active), eradication resolve no-op.
	w.onIncident(engagedIncident(), false, -1)
	snap := w.Snapshot()
	if snap.SLO.EngagedIncidents != 1 || snap.SLO.Eradications != 1 || snap.SLO.DetectionViolations != 0 {
		t.Fatalf("clean campaign SLO: %+v", snap.SLO)
	}
	if len(snap.Active) != 0 {
		t.Fatalf("no alert should stay active after a clean campaign: %+v", snap.Active)
	}
	// Campaign ledger = fire + resolve.
	if got := len(snap.Log); got != 2 {
		t.Fatalf("want 2 transitions (campaign pair), got %d: %+v", got, snap.Log)
	}

	// A failing campaign: leaked frames + late detection + no eradication.
	bad := engagedIncident()
	bad.FirstDetectAt = bad.Start + 30
	bad.FramesLeaked = 3
	bad.Eradicated = false
	bad.BusOffAt = -1
	w.onIncident(bad, false, -1)
	snap = w.Snapshot()
	if snap.SLO.DetectionViolations != 1 || snap.SLO.FramesLeaked != 3 || snap.SLO.EradicationFailures != 1 {
		t.Fatalf("failing campaign SLO: %+v", snap.SLO)
	}
	wantActive := map[string]bool{
		RuleDetectionLatency.String(): true,
		RuleFrameLeak.String():        true,
		RuleEradication.String():      true,
	}
	for _, a := range snap.Active {
		delete(wantActive, a.Rule)
	}
	if len(wantActive) != 0 {
		t.Fatalf("missing active alerts %v; active: %+v", wantActive, snap.Active)
	}

	// A subsequent clean campaign resolves all three.
	w.onIncident(engagedIncident(), false, -1)
	snap = w.Snapshot()
	if len(snap.Active) != 0 {
		t.Fatalf("clean campaign should resolve everything: %+v", snap.Active)
	}
	if snap.Verdicts != 3 {
		t.Fatalf("want 3 verdicts, got %d", snap.Verdicts)
	}

	// Every transition was re-emitted as EvAlert with the rule id in A.
	if len(alerts) != len(snap.Log) {
		t.Fatalf("EvAlert fan-out: want %d, got %d", len(snap.Log), len(alerts))
	}
	for i, ev := range alerts {
		if int(ev.A) != snap.Log[i].RuleID {
			t.Fatalf("EvAlert[%d] rule mismatch: %d vs %d", i, ev.A, snap.Log[i].RuleID)
		}
		wantB := int64(0)
		if snap.Log[i].State == "fire" {
			wantB = 1
		}
		if ev.B != wantB {
			t.Fatalf("EvAlert[%d] state mismatch", i)
		}
	}

	// Metric side: transition counters and SLO counters registered and folded.
	reg := hub.Registry()
	if c := reg.FindCounter("michican_slo_incidents_engaged_total"); c == nil || c.Value() != 3 {
		t.Fatalf("engaged counter: %+v", c)
	}
	if c := reg.FindCounter("michican_alert_transitions_total", "rule", "campaign"); c == nil || c.Value() != 6 {
		t.Fatalf("campaign transitions counter: %+v", c)
	}
}

func TestEngineInProgressAndUnengagedSkipped(t *testing.T) {
	hub := telemetry.NewHub()
	w := New(hub, nil, Config{})

	benign := engagedIncident()
	benign.Detections = 0
	benign.FirstDetectAt = -1
	w.onIncident(benign, false, -1)

	edge := engagedIncident()
	edge.Attempts = 3
	edge.End = 99999
	w.onIncident(edge, true, 100000)

	snap := w.Snapshot()
	if snap.SLO.EngagedIncidents != 0 || len(snap.Log) != 0 {
		t.Fatalf("unengaged/in-progress incidents must not alert: %+v", snap)
	}
	if snap.Verdicts != 2 {
		t.Fatalf("verdicts still recorded: %d", snap.Verdicts)
	}
}

func TestDefenderConfinementStateMachine(t *testing.T) {
	hub := telemetry.NewHub()
	w := New(hub, nil, Config{})
	def := hub.Probe("defender")
	other := hub.Probe("attacker")

	// Another node's TEC runaway is not the defender's problem.
	other.Emit(10, telemetry.EvTEC, 200, 0)
	if n := len(w.Alerts()); n != 0 {
		t.Fatalf("non-defender TEC fired: %d", n)
	}

	def.Emit(20, telemetry.EvTEC, int64(controller.PassiveThreshold)+1, 0)
	log := w.Alerts()
	if len(log) != 1 || log[0].Rule != RuleDefenderConfinement.String() || log[0].Severity != "warning" {
		t.Fatalf("error-passive warning: %+v", log)
	}

	// Escalation to bus-off upgrades to critical (a second fire).
	def.Emit(30, telemetry.EvBusOff, 0, 0)
	log = w.Alerts()
	if len(log) != 2 || log[1].Severity != "critical" {
		t.Fatalf("bus-off critical: %+v", log)
	}

	// Recovery with TEC back down resolves.
	def.Emit(40, telemetry.EvTEC, 0, 0)
	def.Emit(41, telemetry.EvRecover, 0, 0)
	log = w.Alerts()
	if len(log) != 3 || log[2].State != "resolve" {
		t.Fatalf("recovery resolve: %+v", log)
	}
	if len(w.Snapshot().Active) != 0 {
		t.Fatalf("confinement alert still active")
	}
}

func TestLadderCollapseDetection(t *testing.T) {
	hub := telemetry.NewHub()
	cfg := Config{LadderWindowBits: 1000, LadderWarmupWindows: 2}
	w := New(hub, nil, cfg)
	bus := hub.Probe("bus")

	// Healthy warmup + steady state: ~90% of each window fast-forwarded.
	emitWindow := func(winStart, ffBits int64) {
		bus.Emit(winStart+1, telemetry.EvFFSpan, ffBits, 0)
	}
	var t0 int64
	for i := 0; i < 5; i++ {
		emitWindow(t0, 900)
		t0 += 1000
	}
	// Collapse: two windows at 10%.
	emitWindow(t0, 100)
	t0 += 1000
	emitWindow(t0, 100)
	t0 += 1000
	// One more emission to close the last collapsed window.
	emitWindow(t0, 900)

	log := w.Alerts()
	var fired bool
	for _, a := range log {
		if a.Rule == RuleLadderCollapse.String() && a.State == "fire" {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("ladder collapse not detected: %+v", log)
	}
	// Recovery window closes once the next span arrives past it.
	t0 += 1000
	emitWindow(t0, 900)
	if act := w.Snapshot().Active; len(act) != 0 {
		t.Fatalf("collapse should resolve after recovery: %+v", act)
	}
}

func TestLatencyHistPercentiles(t *testing.T) {
	var h latencyHist
	for i := 0; i < 99; i++ {
		h.add(14)
	}
	h.add(300) // clamps to top bucket
	if p := h.percentile(50); p != 14 {
		t.Fatalf("p50: %v", p)
	}
	if p := h.percentile(99); p != 14 {
		t.Fatalf("p99 with 1%% outlier: %v", p)
	}
	if p := h.percentile(100); p != latencyHistBuckets-1 {
		t.Fatalf("p100 should hit the clamp bucket: %v", p)
	}
	var empty latencyHist
	if p := empty.percentile(50); p != 0 {
		t.Fatalf("empty hist: %v", p)
	}
}

func TestAlertEncodeDecodeRoundTrip(t *testing.T) {
	a := Alert{
		Seq: 7, Rule: "frame-leak", RuleID: int(RuleFrameLeak),
		Severity: "critical", State: "fire", Time: 12345,
		Reason:   "3 frames leaked",
		Evidence: map[string]int64{"frames": 3},
	}
	p, err := EncodeAlert(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAlert(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Fatalf("round trip: %+v vs %+v", a, got)
	}
	// Encoding is deterministic (evidence keys sorted by encoding/json).
	p2, _ := EncodeAlert(a)
	if string(p) != string(p2) {
		t.Fatalf("non-deterministic encoding")
	}
}

func TestMonitorProbes(t *testing.T) {
	var backlog int64 = 10
	var age time.Duration = time.Second
	m := &Monitor{}
	m.Attach(StoreBacklogProbe(func() int64 { return backlog }, 100))
	m.Attach(FsyncStallProbe(func(time.Time) time.Duration { return age }, 5*time.Second))

	if issues := m.Check(time.Now()); len(issues) != 0 {
		t.Fatalf("healthy store flagged: %+v", issues)
	}
	backlog = 1000
	age = time.Minute
	issues := m.Check(time.Now())
	if len(issues) != 2 {
		t.Fatalf("want 2 issues, got %+v", issues)
	}
	if issues[0].Rule != RuleStoreBacklog.String() || issues[1].Rule != RuleFsyncStall.String() {
		t.Fatalf("issue rules: %+v", issues)
	}
	var nilMon *Monitor
	if issues := nilMon.Check(time.Now()); issues != nil {
		t.Fatalf("nil monitor must be healthy")
	}
}

func TestFleetWatcherStallDetection(t *testing.T) {
	progress := []VehicleProgress{{ID: 0, NowBits: 100}, {ID: 1, NowBits: 100}}
	fw := NewFleetWatcher(func() []VehicleProgress { return progress }, 10*time.Second)

	base := time.Now()
	if issues := fw.Check(base); len(issues) != 0 {
		t.Fatalf("first observation can't be a stall: %+v", issues)
	}
	// Vehicle 0 advances, vehicle 1 does not.
	progress = []VehicleProgress{{ID: 0, NowBits: 200}, {ID: 1, NowBits: 100}}
	if issues := fw.Check(base.Add(5 * time.Second)); len(issues) != 0 {
		t.Fatalf("within the stall bound: %+v", issues)
	}
	// Vehicle 0 keeps advancing; vehicle 1 is now 20s stuck.
	progress = []VehicleProgress{{ID: 0, NowBits: 300}, {ID: 1, NowBits: 100}}
	issues := fw.Check(base.Add(20 * time.Second))
	if len(issues) != 1 || issues[0].Rule != RuleWorkerStall.String() {
		t.Fatalf("vehicle 1 should be flagged: %+v", issues)
	}
	// A done vehicle is never a stall.
	progress = []VehicleProgress{{ID: 0, NowBits: 200, Done: true}, {ID: 1, NowBits: 300}}
	if issues := fw.Check(base.Add(60 * time.Second)); len(issues) != 0 {
		t.Fatalf("done/advanced vehicles flagged: %+v", issues)
	}
}

func TestFleetCollectorMerge(t *testing.T) {
	mkEngine := func(latency int64) *Engine {
		hub := telemetry.NewHub()
		w := New(hub, nil, Config{})
		inc := engagedIncident()
		inc.FirstDetectAt = inc.Start + latency
		w.onIncident(inc, false, -1)
		return w
	}
	fc := NewFleetCollector(nil)
	fc.Register(0, mkEngine(14))
	fc.Register(1, mkEngine(30)) // violation

	view := fc.Snapshot(time.Now())
	if len(view.Vehicles) != 2 || view.SLO.EngagedIncidents != 2 {
		t.Fatalf("merge: %+v", view.SLO)
	}
	if view.SLO.DetectionViolations != 1 {
		t.Fatalf("violations: %+v", view.SLO)
	}
	// Merged percentile comes from the pooled histogram (14 and 30 → p99=30).
	if view.SLO.DetectionP99Bits != 30 {
		t.Fatalf("fleet p99: %v", view.SLO.DetectionP99Bits)
	}
	if view.ActiveTotal == 0 {
		t.Fatalf("vehicle 1's detection alert should be active fleet-wide")
	}

	fc.Unregister(1)
	view = fc.Snapshot(time.Now())
	if len(view.Vehicles) != 1 || view.SLO.EngagedIncidents != 1 {
		t.Fatalf("unregister: %+v", view.SLO)
	}
}

// TestFleetCollectorSnapshotCountsTheLog: a fleet snapshot reports each
// engine's transition count without copying its log, so the bytes it
// allocates do not grow with the log's length.
func TestFleetCollectorSnapshotCountsTheLog(t *testing.T) {
	bytesPerSnapshot := func(transitions int) uint64 {
		w := New(telemetry.NewHub(), nil, Config{})
		w.mu.Lock()
		for i := 0; i < transitions; i++ {
			w.fire(RuleCampaign, SevWarning, int64(i), because(reasonCampaignEngaged, "0x123", 1), evidence{})
		}
		w.mu.Unlock()
		fc := NewFleetCollector(nil)
		fc.Register(0, w)
		if got := fc.Snapshot(time.Now()).Transitions["total"]; got != int64(transitions) {
			t.Fatalf("snapshot counts %d transitions, want %d", got, transitions)
		}
		const rounds = 50
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			fc.Snapshot(time.Now())
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / rounds
	}
	short, long := bytesPerSnapshot(10), bytesPerSnapshot(10_000)
	if long > short+4096 {
		t.Fatalf("a snapshot allocates %d B over a 10,000-transition log, %d B over 10; want no growth", long, short)
	}
}

func TestRenderDashboard(t *testing.T) {
	hub := telemetry.NewHub()
	w := New(hub, nil, Config{})
	bad := engagedIncident()
	bad.FramesLeaked = 1
	w.onIncident(bad, false, -1)
	fc := NewFleetCollector(nil)
	fc.Register(3, w)

	frame := RenderDashboard(DashboardData{
		Title:      "demo",
		Elapsed:    90 * time.Second,
		BitsPerSec: 2.5e6,
		Vehicles: []DashboardVehicle{
			{ID: 3, Worker: 0, NowBits: 50000, HorizonBits: 100000, Incidents: 1, Active: 1},
			{ID: 4, Worker: 1, NowBits: 100000, HorizonBits: 100000, Done: true},
		},
		View: fc.Snapshot(time.Now()),
	})
	plain := StripANSI(frame)
	for _, want := range []string{"michican-top", "SLO", "frame-leak", "VEHICLES", "50%", "100%"} {
		if !strings.Contains(plain, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, plain)
		}
	}
}

// TestEngineLiveWithForensics drives a real forensics engine via the hub and
// checks the watch engine observes closures through SetOnIncident without
// deadlocking (the OnIncident callback runs under forensics.mu and emits
// EvAlert back through the hub, which the forensics Feed must ignore).
func TestEngineLiveWithForensics(t *testing.T) {
	hub := telemetry.NewHub()
	eng := forensics.NewEngine(hub)
	w := New(hub, eng, Config{})

	att := hub.Probe("attacker")
	def := hub.Probe("defender")
	// One destroyed spoof attempt — the canonical MichiCAN exchange: SOF,
	// verdict at ID bit 9, 7-bit counterattack pull, the attacker's bit error
	// and TEC bump, the shared error delimiter. The campaign is then
	// abandoned; Finalize closes it far from the recording edge.
	const t0 = int64(1000)
	att.Emit(t0, telemetry.EvTxStart, 0x123, 0)
	def.Emit(t0+12, telemetry.EvDetect, 9, 0)
	def.Emit(t0+12, telemetry.EvPullStart, 0, 0)
	att.Emit(t0+14, telemetry.EvError, int64(controller.BitError), 1)
	att.Emit(t0+14, telemetry.EvTEC, 8, 0)
	def.Emit(t0+20, telemetry.EvPullEnd, 7, 0)
	def.Emit(t0+31, telemetry.EvErrorEnd, 0, 0)
	eng.Finalize(500000)

	verdicts := w.Verdicts()
	if len(verdicts) != 1 {
		t.Fatalf("want 1 verdict, got %+v", verdicts)
	}
	v := verdicts[0]
	if !v.Engaged || v.InProgress {
		t.Fatalf("verdict: %+v", v)
	}
	if v.DetectionLatencyBits != 12 || !v.DetectionOK {
		t.Fatalf("latency: %+v", v)
	}
	// Parity: the pure evaluator over the forensics record agrees.
	incs := eng.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents: %+v", incs)
	}
	recomputed := EvaluateIncident(incs[0], true, 500000, Config{})
	if !reflect.DeepEqual(v, recomputed) {
		t.Fatalf("live vs recomputed verdict:\n%+v\n%+v", v, recomputed)
	}
}
