// Package watch is the live SLO and alerting engine: a streaming evaluator
// that subscribes to a simulation's telemetry hub and forensics engine and
// continuously scores the run against the paper's service-level objectives —
// detection latency inside the counterattack window, eradication of every
// full spoofing campaign, zero leaked frames — plus the defender's own
// fault-confinement health and the simulator's self-health sentinels
// (fast-path ladder collapse, store writer backlog, fleet worker liveness).
//
// Rules split into two classes with different determinism contracts:
//
//   - Simulation-time rules (RuleDetectionLatency … RuleLadderCollapse) are
//     driven exclusively by the canonical incident-closure stream
//     (forensics.SetOnIncident) and by single-node event streams, both of
//     which are bit-identical for a given scenario within a stepping mode.
//     Their fire/resolve transitions are appended to a deterministic alert
//     log, re-emitted onto the hub as EvAlert events, and persisted through
//     the durable store's alert seglog — a crash-resumed run regenerates the
//     exact same byte sequence.
//
//   - Wall-clock sentinels (RuleStoreBacklog, RuleFsyncStall,
//     RuleWorkerStall) observe the host, not the simulation. They live in
//     Monitor/FleetWatcher (monitor.go), are evaluated on read, never emit
//     EvAlert, and are never persisted.
//
// The disabled cost follows the telemetry package's probe discipline: a
// simulation without a watch engine attached pays nothing beyond the nil
// checks it already paid, and the forensics engine's OnIncident hook is a
// single nil comparison per incident closure.
package watch

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"michican/internal/controller"
	"michican/internal/forensics"
	"michican/internal/jsonenc"
	"michican/internal/telemetry"
)

// Severity grades an alert.
type Severity uint8

// Severity levels, least to most urgent.
const (
	SevInfo Severity = iota
	SevWarning
	SevCritical
)

// String names the severity as it appears in alert records.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevCritical:
		return "critical"
	default:
		return fmt.Sprintf("Severity(%d)", uint8(s))
	}
}

// Rule identifies one alert rule. The value is the EvAlert A-argument.
type Rule uint8

// The rule taxonomy. Rules 0-5 are simulation-time (deterministic, emitted
// as EvAlert, persisted); rules 6-8 are wall-clock sentinels evaluated by
// Monitor/FleetWatcher on read.
const (
	// RuleDetectionLatency fires when an engaged incident's first FSM verdict
	// lands outside the paper's detection window (SOF + stuffed ID bits; the
	// counterattack must still be able to drive bits 13-19 of the attempt).
	RuleDetectionLatency Rule = iota
	// RuleEradication fires when a full spoofing campaign (a complete TEC
	// ladder's worth of destroyed attempts) closes without driving the
	// attacker bus-off.
	RuleEradication
	// RuleFrameLeak fires when an engaged incident leaked complete attacker
	// frames — the zero-leaked-frames SLO.
	RuleFrameLeak
	// RuleDefenderConfinement tracks the defender's own fault-confinement
	// state: warning on error-passive entry (TEC or REC runaway), critical on
	// bus-off.
	RuleDefenderConfinement
	// RuleCampaign records each engaged incident as a fire/resolve pair at
	// the incident's own boundaries — the alert log's campaign ledger.
	RuleCampaign
	// RuleLadderCollapse fires when the fast-path ladder's windowed hit rate
	// collapses against its rolling baseline (a stepping-performance
	// regression sentinel; silent in exact mode, which commits no spans).
	RuleLadderCollapse
	// RuleStoreBacklog: the store writer's drain backlog exceeded its bound
	// (wall-clock sentinel; Monitor only).
	RuleStoreBacklog
	// RuleFsyncStall: the group-commit fsync has not completed within its
	// stall bound (wall-clock sentinel; Monitor only).
	RuleFsyncStall
	// RuleWorkerStall: a fleet vehicle stopped advancing while not retired
	// (wall-clock sentinel; FleetWatcher only).
	RuleWorkerStall

	numRules
)

// String names the rule as it appears in alert records and metric labels.
func (r Rule) String() string {
	switch r {
	case RuleDetectionLatency:
		return "detection-latency"
	case RuleEradication:
		return "eradication"
	case RuleFrameLeak:
		return "frame-leak"
	case RuleDefenderConfinement:
		return "defender-confinement"
	case RuleCampaign:
		return "campaign"
	case RuleLadderCollapse:
		return "ladder-collapse"
	case RuleStoreBacklog:
		return "store-backlog"
	case RuleFsyncStall:
		return "fsync-stall"
	case RuleWorkerStall:
		return "worker-stall"
	default:
		return fmt.Sprintf("Rule(%d)", uint8(r))
	}
}

// Alert is one fire or resolve transition of a rule. Records are
// deterministic for a deterministic run: times are simulated bit times,
// evidence values are bit times and counts, and encoding/json renders
// evidence maps with sorted keys.
type Alert struct {
	// Seq is the transition's position in the engine's alert log (0-based).
	Seq int64 `json:"seq"`
	// Rule and RuleID name the rule (RuleID is the Rule enum value, also the
	// EvAlert A-argument).
	Rule   string `json:"rule"`
	RuleID int    `json:"rule_id"`
	// Severity grades the transition ("info", "warning", "critical").
	Severity string `json:"severity"`
	// State is "fire" or "resolve".
	State string `json:"state"`
	// Time is the simulated bit time the transition is anchored to.
	Time int64 `json:"t"`
	// Reason is a one-line human-readable cause.
	Reason string `json:"reason"`
	// Evidence carries the rule's numeric witnesses (bit times, counts).
	Evidence map[string]int64 `json:"evidence,omitempty"`
}

// EncodeAlert renders one alert transition as its canonical JSON payload —
// the bytes the durable store's alert log holds (see appendAlert).
func EncodeAlert(a Alert) ([]byte, error) { return appendAlert(nil, &a), nil }

// DecodeAlert parses a stored alert payload.
func DecodeAlert(payload []byte) (Alert, error) {
	var a Alert
	err := json.Unmarshal(payload, &a)
	return a, err
}

// Config tunes an Engine. The zero value applies the paper-grounded
// defaults.
type Config struct {
	// DefenderNode is the telemetry node name whose fault-confinement state
	// RuleDefenderConfinement tracks (default "defender").
	DefenderNode string
	// SLOMaxDetectionLatencyBits bounds the wire distance from an attempt's
	// SOF to the first FSM verdict. The default 19 is the last bit of the
	// counterattack window (Sec. IV: the pull overwrites bits 13-19), so a
	// verdict past it cannot destroy the frame in flight.
	SLOMaxDetectionLatencyBits int64
	// LadderWindowBits is the hit-rate window for RuleLadderCollapse
	// (default 1<<17 simulated bits).
	LadderWindowBits int64
	// LadderCollapseRatio fires RuleLadderCollapse when a window's fast-path
	// hit rate drops below this fraction of the rolling baseline
	// (default 0.5).
	LadderCollapseRatio float64
	// LadderWarmupWindows is how many windows seed the baseline before the
	// collapse comparison arms (default 4).
	LadderWarmupWindows int
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.DefenderNode == "" {
		c.DefenderNode = "defender"
	}
	if c.SLOMaxDetectionLatencyBits <= 0 {
		c.SLOMaxDetectionLatencyBits = 19
	}
	if c.LadderWindowBits <= 0 {
		c.LadderWindowBits = 1 << 17
	}
	if c.LadderCollapseRatio <= 0 {
		c.LadderCollapseRatio = 0.5
	}
	if c.LadderWarmupWindows <= 0 {
		c.LadderWarmupWindows = 4
	}
	return c
}

// IncidentVerdict is the engine's SLO scoring of one closed incident — the
// live counterpart of the values Tables I/II regenerate from the forensics
// log. Verdicts are produced by the pure EvaluateIncident, so a post-hoc
// pass over forensics.Incidents yields the same records the live engine
// collected (the experiment package's parity test pins this, across all
// stepping modes).
type IncidentVerdict struct {
	IDHex    string `json:"id"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Attempts int    `json:"attempts"`
	// Engaged reports that the defense fired at least one FSM verdict inside
	// the incident. Benign arbitration fights (rival replayer retransmits)
	// reconstruct as incidents too; they are never scored against the
	// detection/leak/eradication SLOs.
	Engaged bool `json:"engaged"`
	// InProgress applies the forensics recording-edge rule: a trailing
	// incident with fewer than a full campaign's attempts ending within one
	// recovery window of the recording's end is still unfolding and is not
	// scored.
	InProgress bool `json:"in_progress,omitempty"`
	// DetectionLatencyBits is FirstDetectAt - Start (-1 when the defense
	// never fired); DetectionOK applies the SLO window to it.
	DetectionLatencyBits int64 `json:"detection_latency_bits"`
	DetectionOK          bool  `json:"detection_ok"`
	// Eradicated mirrors the incident; EradicationOK is false only for a
	// full campaign that failed to eradicate (shorter incidents are
	// attacker-abandoned, not defense failures).
	Eradicated    bool `json:"eradicated"`
	EradicationOK bool `json:"eradication_ok"`
	// FramesLeaked mirrors the incident; LeakFree is the SLO verdict.
	FramesLeaked int  `json:"frames_leaked"`
	LeakFree     bool `json:"leak_free"`
}

// EvaluateIncident scores one closed incident against the SLOs. atEnd and
// recordingEnd are the forensics closure callback's arguments (atEnd false /
// recordingEnd -1 for mid-run closures).
func EvaluateIncident(inc forensics.Incident, atEnd bool, recordingEnd int64, cfg Config) IncidentVerdict {
	cfg = cfg.withDefaults()
	v := IncidentVerdict{
		IDHex:                inc.IDHex,
		Start:                inc.Start,
		End:                  inc.End,
		Attempts:             inc.Attempts,
		Engaged:              inc.Detections > 0,
		DetectionLatencyBits: -1,
		Eradicated:           inc.Eradicated,
		FramesLeaked:         inc.FramesLeaked,
	}
	if atEnd && inc.Attempts < forensics.FullCampaignAttempts &&
		recordingEnd-inc.End < forensics.EpisodeEdgeMarginBits {
		v.InProgress = true
	}
	if v.Engaged && inc.FirstDetectAt >= 0 {
		v.DetectionLatencyBits = inc.FirstDetectAt - inc.Start
	}
	v.DetectionOK = v.Engaged && v.DetectionLatencyBits >= 0 &&
		v.DetectionLatencyBits <= cfg.SLOMaxDetectionLatencyBits
	v.EradicationOK = inc.Eradicated || inc.Attempts < forensics.FullCampaignAttempts
	v.LeakFree = inc.FramesLeaked == 0
	return v
}

// latencyHistBuckets bounds the exact counting histogram: detection
// latencies land in single-digit bits; anything larger clamps into the top
// bucket (it is an SLO violation regardless).
const latencyHistBuckets = 128

// latencyHist is an exact counting histogram over small integer latencies —
// unlike telemetry.Histogram (an Accumulator: mean/stddev only) it yields
// true percentiles, which the SLO summary needs.
type latencyHist struct {
	counts [latencyHistBuckets]int64
	n      int64
}

// add folds one latency in, clamping into the top bucket.
func (h *latencyHist) add(v int64) {
	if v < 0 {
		v = 0
	}
	if v >= latencyHistBuckets {
		v = latencyHistBuckets - 1
	}
	h.counts[v]++
	h.n++
}

// percentile returns the p-th percentile (0-100, nearest-rank) by counting
// up the exact buckets; 0 when empty.
func (h *latencyHist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen int64
	for v, c := range h.counts {
		seen += c
		if seen >= rank {
			return float64(v)
		}
	}
	return float64(latencyHistBuckets - 1)
}

// SLOSummary is the live SLO scoreboard.
type SLOSummary struct {
	EngagedIncidents    int64   `json:"engaged_incidents"`
	DetectionP50Bits    float64 `json:"detection_p50_bits"`
	DetectionP99Bits    float64 `json:"detection_p99_bits"`
	DetectionViolations int64   `json:"detection_violations"`
	Eradications        int64   `json:"eradications"`
	EradicationFailures int64   `json:"eradication_failures"`
	LeakIncidents       int64   `json:"leak_incidents"`
	FramesLeaked        int64   `json:"frames_leaked"`
	LadderHitRate       float64 `json:"ladder_hit_rate"`
	LadderBaseline      float64 `json:"ladder_baseline_hit_rate"`
}

// Snapshot is the /alerts payload: the currently-firing alerts, the full
// transition log, and the SLO scoreboard.
type Snapshot struct {
	Active   []Alert    `json:"active"`
	Log      []Alert    `json:"log"`
	SLO      SLOSummary `json:"slo"`
	Verdicts int        `json:"verdicts"`
}

// Engine is the per-simulation watch engine. Create with New; it subscribes
// to the hub and registers itself as the forensics engine's incident-closure
// observer. All methods are safe for concurrent use with ongoing emission.
type Engine struct {
	mu    sync.Mutex
	hub   *telemetry.Hub
	probe telemetry.Probe
	cfg   Config

	cancel func()

	// defender node resolution: names are looked up lazily (nodes register
	// as they first emit) and cached.
	names      map[telemetry.NodeID]string
	defenderID telemetry.NodeID
	defenderOK bool

	// alert state: the transition log, and per rule the log index of its
	// active fire (-1 while resolved).
	log         []record
	active      [numRules]int
	transitions [numRules]*telemetry.Counter
	gActive     [numRules]*telemetry.Gauge

	// SLO state
	verdicts []IncidentVerdict
	lat      latencyHist
	engaged  int64
	detViol  int64
	erad     int64
	eradFail int64
	leakInc  int64
	leaked   int64

	// defender fault confinement
	defTEC, defREC int64
	defBusOff      bool

	// ladder collapse: windowed fast-path hit rate vs rolling EWMA baseline.
	winEnd   int64
	winFF    int64
	windows  int
	baseline float64
	ladRate  float64

	// registry instruments
	cEngaged, cDetViol, cErad, cEradFail, cLeakInc, cLeaked *telemetry.Counter
	gP50, gP99, gLadRate, gLadBase                          *telemetry.Gauge
}

// New attaches a watch engine to the hub (and, when eng is non-nil, to the
// forensics engine's incident-closure hook). Call before the run starts so
// the engine sees the whole stream; detach with Close.
func New(hub *telemetry.Hub, eng *forensics.Engine, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	w := &Engine{
		hub:   hub,
		cfg:   cfg,
		names: make(map[telemetry.NodeID]string),
	}
	for r := range w.active {
		w.active[r] = -1
	}
	w.probe = hub.Probe("watch")
	reg := hub.Registry()
	for r := Rule(0); r < numRules; r++ {
		w.transitions[r] = reg.Counter("michican_alert_transitions_total", "rule", r.String())
		w.gActive[r] = reg.Gauge("michican_alert_active", "rule", r.String())
	}
	w.cEngaged = reg.Counter("michican_slo_incidents_engaged_total")
	w.cDetViol = reg.Counter("michican_slo_detection_violations_total")
	w.cErad = reg.Counter("michican_slo_eradications_total")
	w.cEradFail = reg.Counter("michican_slo_eradication_failures_total")
	w.cLeakInc = reg.Counter("michican_slo_leak_incidents_total")
	w.cLeaked = reg.Counter("michican_slo_frames_leaked_total")
	w.gP50 = reg.Gauge("michican_slo_detection_latency_bits_p50")
	w.gP99 = reg.Gauge("michican_slo_detection_latency_bits_p99")
	w.gLadRate = reg.Gauge("michican_slo_ladder_hit_rate")
	w.gLadBase = reg.Gauge("michican_slo_ladder_baseline_hit_rate")
	if eng != nil {
		eng.SetOnIncident(w.onIncident)
	}
	w.cancel = hub.Subscribe(w.onEvent)
	return w
}

// Close cancels the hub subscription. The forensics hook stays registered
// (the engine owner decides its lifetime); a closed watch engine simply
// stops folding events.
func (w *Engine) Close() {
	if w.cancel != nil {
		w.cancel()
		w.cancel = nil
	}
}

// onEvent is the hub subscription: it folds only the single-node streams the
// simulation-time rules need. The EvAlert early-return is load-bearing —
// the engine's own probe emissions fan back out to this handler, and
// re-locking w.mu (already held at every emit site) would self-deadlock.
func (w *Engine) onEvent(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.EvAlert:
		return
	case telemetry.EvFFSpan:
		w.mu.Lock()
		w.foldLadder(ev)
		w.mu.Unlock()
	case telemetry.EvTEC, telemetry.EvREC, telemetry.EvBusOff, telemetry.EvRecover:
		w.mu.Lock()
		if w.isDefender(ev.Node) {
			w.foldDefender(ev)
		}
		w.mu.Unlock()
	}
}

// isDefender resolves whether the node is the configured defender, caching
// hub name lookups. Called with w.mu held; the hub lock is independent.
func (w *Engine) isDefender(id telemetry.NodeID) bool {
	if w.defenderOK {
		return id == w.defenderID
	}
	name, ok := w.names[id]
	if !ok {
		name = w.hub.NodeName(id)
		w.names[id] = name
	}
	if name == w.cfg.DefenderNode {
		w.defenderID = id
		w.defenderOK = true
		return true
	}
	return false
}

// foldDefender tracks the defender's fault-confinement level and drives
// RuleDefenderConfinement: 0 error-active (resolved), 1 error-passive
// (warning), 2 bus-off (critical). Called with w.mu held.
func (w *Engine) foldDefender(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.EvTEC:
		w.defTEC = ev.A
	case telemetry.EvREC:
		w.defREC = ev.A
	case telemetry.EvBusOff:
		w.defBusOff = true
	case telemetry.EvRecover:
		w.defBusOff = false
	}
	level, sev := 0, SevInfo
	switch {
	case w.defBusOff:
		level, sev = 2, SevCritical
	case w.defTEC > controller.PassiveThreshold || w.defREC > controller.PassiveThreshold:
		level, sev = 1, SevWarning
	}
	cur := w.activeLevel(RuleDefenderConfinement)
	switch {
	case level > cur:
		reason := because(reasonDefenderPassive, "", w.defTEC, w.defREC)
		if level == 2 {
			reason = because(reasonDefenderBusOff, "")
		}
		w.fire(RuleDefenderConfinement, sev, ev.Time, reason,
			evidenceOf(keyLevel, int64(level)).and(keyRec, w.defREC).and(keyTec, w.defTEC))
	case level == 0 && cur > 0:
		w.resolveRule(RuleDefenderConfinement, ev.Time,
			because(reasonDefenderActive, "", w.defTEC, w.defREC))
	}
}

// activeLevel reads the "level" evidence of the rule's active alert (0 when
// resolved). Called with w.mu held.
func (w *Engine) activeLevel(r Rule) int {
	if i := w.active[r]; i >= 0 {
		return int(w.log[i].ev.get(keyLevel))
	}
	return 0
}

// foldLadder drives RuleLadderCollapse from EvFFSpan commits: fast-path bits
// accumulate into fixed windows of simulated time, each closed window's hit
// rate updates the rolling baseline (EWMA, alpha 1/4 — but only while
// healthy, so a persistent collapse stays fired instead of eroding its own
// reference), and a window below LadderCollapseRatio x baseline fires.
// Called with w.mu held.
func (w *Engine) foldLadder(ev telemetry.Event) {
	win := w.cfg.LadderWindowBits
	if w.winEnd == 0 {
		w.winEnd = ev.Time - ev.Time%win + win
	}
	for ev.Time >= w.winEnd {
		w.closeLadderWindow()
		w.winEnd += win
	}
	w.winFF += ev.A
}

// closeLadderWindow scores one elapsed window. Called with w.mu held.
func (w *Engine) closeLadderWindow() {
	rate := float64(w.winFF) / float64(w.cfg.LadderWindowBits)
	if rate > 1 {
		rate = 1 // spans straddling the boundary over-credit slightly
	}
	w.winFF = 0
	w.windows++
	w.ladRate = rate
	w.gLadRate.Set(rate)
	if w.windows <= w.cfg.LadderWarmupWindows {
		// Seed the baseline with a plain running average over the warmup.
		w.baseline += (rate - w.baseline) / float64(w.windows)
		w.gLadBase.Set(w.baseline)
		return
	}
	collapsed := rate < w.cfg.LadderCollapseRatio*w.baseline
	t := w.winEnd
	if collapsed {
		w.fire(RuleLadderCollapse, SevWarning, t,
			because(reasonLadderCollapsed, "",
				floatArg(rate), floatArg(w.cfg.LadderCollapseRatio), floatArg(w.baseline)),
			evidenceOf(keyBaselinePct, int64(w.baseline*100)).and(keyHitRatePct, int64(rate*100)))
	} else {
		w.resolveRule(RuleLadderCollapse, t, because(reasonLadderRecovered, "", floatArg(rate)))
		w.baseline += (rate - w.baseline) / 4
	}
	w.gLadBase.Set(w.baseline)
}

// onIncident is the forensics closure hook. It runs inside the hub's batch
// delivery with the forensics engine's lock held (lock order: the hub's
// sequencing lock -> forensics.mu -> watch.mu, never the reverse) and must
// not call back into the forensics engine; emitting EvAlert is safe because
// alerts bypass the hub's sequencer.
func (w *Engine) onIncident(inc forensics.Incident, atEnd bool, recordingEnd int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	v := EvaluateIncident(inc, atEnd, recordingEnd, w.cfg)
	w.verdicts = append(w.verdicts, v)
	if v.InProgress || !v.Engaged {
		return
	}
	w.engaged++
	w.cEngaged.Inc()

	// Campaign ledger: one fire/resolve pair at the incident's boundaries.
	witness := evidenceOf(keyAttempts, int64(v.Attempts))
	if v.Eradicated {
		witness = witness.and(keyBusOffAt, inc.BusOffAt)
	}
	witness = witness.and(keyDetections, int64(inc.Detections)).and(keyLeaked, int64(v.FramesLeaked))
	w.fire(RuleCampaign, SevInfo, v.Start,
		because(reasonCampaignEngaged, v.IDHex, int64(v.Attempts)), witness)
	outcome := reasonCampaignAbandoned
	if v.Eradicated {
		outcome = reasonCampaignEradicated
	} else if !v.EradicationOK {
		outcome = reasonCampaignNotEradicated
	}
	w.resolveRule(RuleCampaign, v.End, because(outcome, v.IDHex))

	// Detection-latency SLO.
	if v.DetectionLatencyBits >= 0 {
		w.lat.add(v.DetectionLatencyBits)
		w.gP50.Set(w.lat.percentile(50))
		w.gP99.Set(w.lat.percentile(99))
	}
	if !v.DetectionOK {
		w.detViol++
		w.cDetViol.Inc()
		w.fire(RuleDetectionLatency, SevWarning, v.Start,
			because(reasonDetectionSlow, v.IDHex, v.DetectionLatencyBits, w.cfg.SLOMaxDetectionLatencyBits),
			evidenceOf(keyLatencyBits, v.DetectionLatencyBits))
	} else {
		w.resolveRule(RuleDetectionLatency, v.End,
			because(reasonDetectionInside, v.IDHex, v.DetectionLatencyBits))
	}

	// Zero-leaked-frames SLO.
	if v.FramesLeaked > 0 {
		w.leakInc++
		w.leaked += int64(v.FramesLeaked)
		w.cLeakInc.Inc()
		w.cLeaked.Add(int64(v.FramesLeaked))
		w.fire(RuleFrameLeak, SevCritical, v.Start,
			because(reasonFramesLeaked, v.IDHex, int64(v.FramesLeaked)),
			evidenceOf(keyFrames, int64(v.FramesLeaked)))
	} else {
		w.resolveRule(RuleFrameLeak, v.End, because(reasonNothingLeaked, v.IDHex))
	}

	// Eradication SLO.
	switch {
	case v.Eradicated:
		w.erad++
		w.cErad.Inc()
		w.resolveRule(RuleEradication, inc.BusOffAt,
			because(reasonDrivenBusOff, v.IDHex, int64(v.Attempts)))
	case !v.EradicationOK:
		w.eradFail++
		w.cEradFail.Inc()
		w.fire(RuleEradication, SevCritical, v.End,
			because(reasonNoBusOff, v.IDHex, int64(v.Attempts)),
			evidenceOf(keyAttempts, int64(v.Attempts)))
	}
}

// fire appends a fire transition unless the rule is already active at the
// same severity, and re-emits it onto the hub as EvAlert. Called with w.mu
// held.
func (w *Engine) fire(r Rule, sev Severity, t int64, reason why, witness evidence) {
	if i := w.active[r]; i >= 0 && w.log[i].sev == sev && r != RuleCampaign {
		return // already firing at this grade; no churn
	}
	w.active[r] = len(w.log)
	w.log = append(w.log, record{t: t, why: reason, ev: witness, rule: r, sev: sev})
	w.transitions[r].Inc()
	w.gActive[r].Set(1)
	w.probe.Emit(t, telemetry.EvAlert, int64(r), 1)
}

// resolveRule appends a resolve transition when the rule is active. Called
// with w.mu held.
func (w *Engine) resolveRule(r Rule, t int64, reason why) {
	i := w.active[r]
	if i < 0 {
		return
	}
	w.log = append(w.log, record{t: t, why: reason, rule: r, sev: w.log[i].sev, resolve: true})
	w.active[r] = -1
	w.transitions[r].Inc()
	w.gActive[r].Set(0)
	w.probe.Emit(t, telemetry.EvAlert, int64(r), 0)
}

// sloLocked assembles the scoreboard. Called with w.mu held.
func (w *Engine) sloLocked() SLOSummary {
	return SLOSummary{
		EngagedIncidents:    w.engaged,
		DetectionP50Bits:    w.lat.percentile(50),
		DetectionP99Bits:    w.lat.percentile(99),
		DetectionViolations: w.detViol,
		Eradications:        w.erad,
		EradicationFailures: w.eradFail,
		LeakIncidents:       w.leakInc,
		FramesLeaked:        w.leaked,
		LadderHitRate:       w.ladRate,
		LadderBaseline:      w.baseline,
	}
}

// SLO snapshots the scoreboard.
func (w *Engine) SLO() SLOSummary {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sloLocked()
}

// Snapshot renders the /alerts payload (slices non-nil for a stable JSON
// shape).
func (w *Engine) Snapshot() Snapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Snapshot{
		Active:   w.activeLocked(),
		Log:      w.alertsLocked(make([]Alert, 0, len(w.log))),
		SLO:      w.sloLocked(),
		Verdicts: len(w.verdicts),
	}
}

// activeLocked copies the currently-firing alerts (non-nil). Called with
// w.mu held.
func (w *Engine) activeLocked() []Alert {
	active := []Alert{}
	for _, i := range w.active {
		if i >= 0 {
			active = append(active, w.log[i].alert(i))
		}
	}
	return active
}

// alertsLocked appends the transition log, materialized, to dst. Called
// with w.mu held.
func (w *Engine) alertsLocked(dst []Alert) []Alert {
	for i := range w.log {
		dst = append(dst, w.log[i].alert(i))
	}
	return dst
}

// Alerts returns a copy of the transition log.
func (w *Engine) Alerts() []Alert {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.log) == 0 {
		return nil
	}
	return w.alertsLocked(make([]Alert, 0, len(w.log)))
}

// Verdicts returns a copy of the per-incident SLO scorecards, in closure
// order (mid-run closures first, recording-edge closures last in canonical
// (Start, ID) order).
func (w *Engine) Verdicts() []IncidentVerdict {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]IncidentVerdict(nil), w.verdicts...)
}

// EncodeAlertLog renders the transition log as durable-store payloads — the
// batch FinalizeDurable hands to Sink.AppendAlerts — into one buffer, one
// sub-slice per transition. Payload i is EncodeAlert of Alerts()[i].
func (w *Engine) EncodeAlertLog() ([][]byte, error) {
	// Appends never touch a record below len, so the records read here need
	// no lock once the length is taken.
	w.mu.Lock()
	log := w.log[:len(w.log):len(w.log)]
	w.mu.Unlock()
	hint := 0
	for i := range log {
		hint += log[i].sizeHint()
	}
	return jsonenc.Records(len(log), hint, func(dst []byte, i int) ([]byte, error) {
		return log[i].appendJSON(dst, i), nil
	})
}

// fleetView is one engine's share of FleetCollector.Snapshot: the active
// alerts, the scoreboard, the transition count and the latency histogram.
type fleetView struct {
	active      []Alert
	slo         SLOSummary
	transitions int
	lat         latencyHist
}

// fleetView reads the engine's share under one lock. Unlike Snapshot it
// counts the transition log instead of copying it, so its cost does not
// grow with the run.
func (w *Engine) fleetView() fleetView {
	w.mu.Lock()
	defer w.mu.Unlock()
	return fleetView{active: w.activeLocked(), slo: w.sloLocked(), transitions: len(w.log), lat: w.lat}
}
