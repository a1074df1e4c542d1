package experiment

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"michican/internal/attack"
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/core"
	"michican/internal/forensics"
	"michican/internal/fsm"
	"michican/internal/restbus"
	"michican/internal/telemetry"
	"michican/internal/trace"
	"michican/internal/watch"
)

// idleOnlyObserver is a deliberately half-capable participant: it promises
// idle quiescence (so inter-frame jumps still happen) but implements no
// RunObserver, which pins every sole-transmitter frame span back to exact
// per-bit stepping. Fuzz mixes include it to exercise the pinning path.
type idleOnlyObserver struct {
	bits int64
}

func (o *idleOnlyObserver) Drive(bus.BitTime) can.Level { return can.Recessive }

func (o *idleOnlyObserver) Observe(bus.BitTime, can.Level) { o.bits++ }

func (o *idleOnlyObserver) QuiescentUntil(now bus.BitTime) bus.BitTime {
	return now + bus.BitTime(1<<30)
}

func (o *idleOnlyObserver) SkipIdle(from, to bus.BitTime) { o.bits += int64(to - from) }

// diffMode selects which fast-path stack a differential arm runs with.
type diffMode int

const (
	// diffExact steps every bit.
	diffExact diffMode = iota
	// diffFrameFF enables the idle and sole-transmitter paths but disables
	// the contested-window and compiled-splice paths, so multi-driver
	// windows exact-step.
	diffFrameFF
	// diffContendFF adds bulk wired-AND resolution of contested windows,
	// with the compiled-splice tier still disabled.
	diffContendFF
	// diffSpliceFF enables the full ladder topped by the compiled-splice
	// tier, which folds whole precompiled frame windows plus their
	// intermission tails.
	diffSpliceFF
)

// ffCounters reports which fast paths a run engaged.
type ffCounters struct {
	idle, frame, contend, splice int64
	// pinned records that the half-capable observer joined, pinning the
	// frame, contend, and splice paths to exact stepping by construction.
	pinned bool
}

// diffOutcome captures everything the differential compares: the full
// resolved wire trace plus every node's protocol counters.
type diffOutcome struct {
	Bits           []can.Level
	TEC, REC       []int
	BusOffEvents   []int
	TxSuccess      []int
	RxFrames       []int
	Detections     int
	Counterattacks int
}

// randomScenario derives a network from the seed: a handful of periodic
// messages with random IDs/DLCs/periods behind one replayer, a
// MichiCAN-defended ECU, optionally a rival replayer whose schedule is
// built to provoke arbitration fights, optionally a fabrication attacker
// that starts at a random bit, and optionally the half-capable pinning
// observer.
func runRandomScenario(seed int64, mode diffMode, hub *telemetry.Hub) (diffOutcome, ffCounters, error) {
	rng := rand.New(rand.NewSource(seed))
	var out diffOutcome
	var ff ffCounters

	// Random schedule: 2-6 messages, distinct random IDs, random DLC/period.
	nMsgs := 2 + rng.Intn(5)
	used := map[can.ID]bool{DefenderID: true}
	matrix := &restbus.Matrix{Vehicle: "fuzz", Bus: "fuzz"}
	ids := []can.ID{DefenderID}
	for len(matrix.Messages) < nMsgs {
		id := can.ID(rng.Intn(0x7F0))
		if used[id] {
			continue
		}
		used[id] = true
		ids = append(ids, id)
		matrix.Messages = append(matrix.Messages, restbus.Message{
			ID:          id,
			Transmitter: fmt.Sprintf("ecu-%03X", uint16(id)),
			DLC:         rng.Intn(9),
			Period:      time.Duration(2+rng.Intn(28)) * time.Millisecond,
		})
	}

	// Fight mix: with probability ~1/2 a rival replayer mirrors part of the
	// schedule at equal periods, so both nodes regularly hold queued frames
	// through the same busy window and assert SOF together. A mirror keeps
	// either the same ID with a different payload length — the fight then
	// survives arbitration and diverges mid-frame into a bit error and an
	// error-flag exchange — or takes the adjacent ID, a classic
	// priority-resolved arbitration fight.
	var rival *restbus.Matrix
	if rng.Intn(2) == 0 {
		rival = &restbus.Matrix{Vehicle: "fuzz", Bus: "rival"}
		for _, msg := range matrix.Messages {
			if rng.Intn(2) == 0 {
				continue
			}
			m := msg
			m.Transmitter = "rival-" + m.Transmitter
			if rng.Intn(2) == 0 {
				m.DLC = (m.DLC + 1 + rng.Intn(7)) % 9 // never the original DLC
			} else {
				id := m.ID + 1
				for used[id] {
					id++
				}
				used[id] = true
				ids = append(ids, id)
				m.ID = id
			}
			rival.Messages = append(rival.Messages, m)
		}
		if len(rival.Messages) == 0 {
			rival = nil
		}
	}

	v, err := fsm.NewIVN(ids)
	if err != nil {
		return out, ff, err
	}
	ds, err := fsm.NewDetectionSet(v, v.Index(DefenderID))
	if err != nil {
		return out, ff, err
	}
	def, err := core.New(core.Config{Name: "defender", FSM: fsm.Build(ds)})
	if err != nil {
		return out, ff, err
	}

	bb := bus.New(bus.Rate50k)
	bb.SetFastForward(mode != diffExact)
	bb.SetFrameFastForward(mode != diffExact)
	bb.SetContendFastForward(mode == diffContendFF || mode == diffSpliceFF)
	bb.SetSpliceFastForward(mode == diffSpliceFF)

	defCtl := controller.New(controller.Config{Name: "defender", AutoRecover: true})
	ecu := core.NewECU(defCtl, def)
	bb.Attach(ecu)
	rep := restbus.NewReplayer("restbus", matrix, bus.Rate50k, rand.New(rand.NewSource(seed+1)))
	bb.Attach(rep)
	if hub != nil {
		bb.SetTelemetry(hub, "bus")
		ecu.SetTelemetry(hub)
		rep.SetTelemetry(hub)
	}

	ctls := []*controller.Controller{defCtl, rep.Controller()}

	if rival != nil {
		rrep := restbus.NewReplayer("rival", rival, bus.Rate50k, rand.New(rand.NewSource(seed+2)))
		bb.Attach(rrep)
		if hub != nil {
			rrep.SetTelemetry(hub)
		}
		ctls = append(ctls, rrep.Controller())
	}

	// Pinned-node mix: with probability ~1/3 a half-capable observer joins,
	// pinning every frame span to exact stepping in both runs.
	pinned := rng.Intn(3) == 0
	if pinned {
		bb.Attach(&idleOnlyObserver{})
	}

	// Attack mix: with probability ~2/3 a fabrication attacker spoofs either
	// the defender's ID (provoking detection + counterattack + bus-off) or a
	// random victim, starting at a random bit.
	var attacker *attack.Attacker
	attackStart := int64(0)
	if rng.Intn(3) != 0 {
		victim := DefenderID
		if rng.Intn(3) == 0 {
			victim = ids[1+rng.Intn(len(ids)-1)]
		}
		payload := make([]byte, rng.Intn(9))
		rng.Read(payload)
		attacker = attack.NewFabrication("attacker", victim, payload, int64(300+rng.Intn(2000)))
		attackStart = int64(rng.Intn(3000))
		if hub != nil {
			attacker.SetTelemetry(hub)
		}
	}

	rec := trace.NewRecorder()
	bb.AttachTap(rec)

	// Attach-time randomization happens at a Run boundary, which is the only
	// point external mutation is allowed on either path.
	total := fuzzTotalBits // 400 ms of bus time at 50 kbit/s
	if attacker != nil {
		bb.Run(attackStart)
		bb.Attach(attacker)
		ctls = append(ctls, attacker.Controller())
		bb.Run(total - attackStart)
	} else {
		bb.Run(total)
	}

	out.Bits = rec.Bits()
	for _, c := range ctls {
		st := c.Stats()
		out.TEC = append(out.TEC, c.TEC())
		out.REC = append(out.REC, c.REC())
		out.BusOffEvents = append(out.BusOffEvents, st.BusOffEvents)
		out.TxSuccess = append(out.TxSuccess, st.TxSuccess)
		out.RxFrames = append(out.RxFrames, st.RxSuccess)
	}
	ds2 := def.Stats()
	out.Detections = ds2.Detections
	out.Counterattacks = ds2.Counterattacks
	ff.idle = bb.IdleForwardedBits()
	ff.frame = bb.FrameForwardedBits()
	ff.contend = bb.ContendForwardedBits()
	ff.splice = bb.SpliceForwardedBits()
	ff.pinned = pinned
	return out, ff, nil
}

// fuzzTotalBits mirrors runRandomScenario's run length so differential arms
// can finalize their forensics engines at the recording end.
const fuzzTotalBits = int64(20_000)

// diffSeed runs one seed five ways — exact with no telemetry, frame-FF with
// contested windows exact-stepped, contend-FF with bulk wired-AND
// resolution, splice-FF with the full ladder including compiled-window
// splicing, and exact again with a fully wired, event-retaining hub — and
// fails on any divergence: every fast path must be bit-invisible, and
// telemetry must be a pure observer on every path. The four wired arms each
// feed a live forensics engine, and the reconstructed incident logs must be
// identical across stepping modes — the tentpole's parity claim, fuzzed.
// With floors set it also requires each arm's own rung to carry bits, which
// holds for the fixed sweep's seeds but not for every schedule (a saturated
// bus with two replayers never has the lone transmitter a splice needs).
// Returns the number of incidents the seed produced.
func diffSeed(t *testing.T, seed int64, floors bool) int {
	t.Helper()
	// Every wired arm also carries a live watch engine: SLO verdicts and
	// alert transitions must be as stepping-mode-invariant as the forensics
	// record they derive from.
	newEng := func(retain bool) (*telemetry.Hub, *forensics.Engine, *watch.Engine) {
		h := telemetry.NewHub()
		h.RetainEvents(retain)
		e := forensics.NewEngine(h)
		return h, e, watch.New(h, e, watch.Config{})
	}
	finalize := func(e *forensics.Engine) []forensics.Incident {
		e.Finalize(fuzzTotalBits)
		e.Close()
		return e.Incidents()
	}

	exact, exFF, err := runRandomScenario(seed, diffExact, nil)
	if err != nil {
		t.Fatalf("seed %d exact: %v", seed, err)
	}
	if exFF.idle != 0 || exFF.frame != 0 || exFF.contend != 0 || exFF.splice != 0 {
		t.Fatalf("seed %d: exact run fast-forwarded", seed)
	}
	fastHub, fastEng, fastW := newEng(false)
	fast, fastFF, err := runRandomScenario(seed, diffFrameFF, fastHub)
	if err != nil {
		t.Fatalf("seed %d fast: %v", seed, err)
	}
	if floors && fastFF.idle == 0 {
		t.Errorf("seed %d: idle fast path never engaged", seed)
	}
	if floors && fastFF.frame == 0 && !fastFF.pinned {
		t.Errorf("seed %d: frame fast path never engaged with no pinning node", seed)
	}
	if fastFF.contend != 0 || fastFF.splice != 0 {
		t.Errorf("seed %d: disabled fast path engaged on frame-ff arm", seed)
	}
	contendHub, contendEng, contendW := newEng(false)
	contend, contendFF, err := runRandomScenario(seed, diffContendFF, contendHub)
	if err != nil {
		t.Fatalf("seed %d contend: %v", seed, err)
	}
	if floors && contendFF.contend == 0 && !contendFF.pinned {
		t.Errorf("seed %d: contend fast path never engaged with no pinning node", seed)
	}
	if contendFF.splice != 0 {
		t.Errorf("seed %d: splice path engaged while disabled", seed)
	}
	spliceHub, spliceEng, spliceW := newEng(false)
	splice, spliceFF, err := runRandomScenario(seed, diffSpliceFF, spliceHub)
	if err != nil {
		t.Fatalf("seed %d splice: %v", seed, err)
	}
	if floors && spliceFF.splice == 0 && !spliceFF.pinned {
		t.Errorf("seed %d: splice fast path never engaged with no pinning node", seed)
	}
	hub, wiredEng, wiredW := newEng(true)
	wired, _, err := runRandomScenario(seed, diffExact, hub)
	if err != nil {
		t.Fatalf("seed %d wired: %v", seed, err)
	}
	compare := func(label string, a, b diffOutcome) {
		t.Helper()
		if !reflect.DeepEqual(a.Bits, b.Bits) {
			i := 0
			for i < len(a.Bits) && i < len(b.Bits) && a.Bits[i] == b.Bits[i] {
				i++
			}
			t.Fatalf("seed %d: %s wire traces diverge at bit %d (%d bits vs %d bits)",
				seed, label, i, len(a.Bits), len(b.Bits))
		}
		a.Bits, b.Bits = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: %s counters diverge:\n%+v\nvs\n%+v", seed, label, a, b)
		}
	}
	compare("exact vs frame-ff", exact, fast)
	compare("frame-ff vs contend-ff", fast, contend)
	compare("contend-ff vs splice-ff", contend, splice)
	compare("splice-ff vs telemetry-wired-exact", splice, wired)
	if hub.Len() == 0 {
		t.Errorf("seed %d: wired run captured no telemetry events", seed)
	}

	// Forensics parity: the incident logs reconstructed from each arm's event
	// stream must be field-identical, whatever mix of fast paths stepped the
	// run.
	exactIncs := finalize(wiredEng)
	fastIncs := finalize(fastEng)
	contendIncs := finalize(contendEng)
	spliceIncs := finalize(spliceEng)
	if !reflect.DeepEqual(exactIncs, fastIncs) {
		t.Fatalf("seed %d: forensics incidents diverge exact vs frame-ff:\n%+v\nvs\n%+v",
			seed, exactIncs, fastIncs)
	}
	if !reflect.DeepEqual(exactIncs, contendIncs) {
		t.Fatalf("seed %d: forensics incidents diverge exact vs contend-ff:\n%+v\nvs\n%+v",
			seed, exactIncs, contendIncs)
	}
	if !reflect.DeepEqual(exactIncs, spliceIncs) {
		t.Fatalf("seed %d: forensics incidents diverge exact vs splice-ff:\n%+v\nvs\n%+v",
			seed, exactIncs, spliceIncs)
	}

	// SLO/alert parity: every wired arm's watch engine must reach identical
	// verdicts and fire/resolve an identical alert log, whatever mix of fast
	// paths stepped the run — and the live verdicts must match the pure
	// evaluator replayed over the canonical forensics record.
	// Live verdicts arrive in closure order (an unengaged episode times out
	// after a later campaign completes); sort into the forensics record's
	// (Start, IDHex) order so content, not reporting order, is compared.
	sortVerdicts := func(v []watch.IncidentVerdict) []watch.IncidentVerdict {
		out := append([]watch.IncidentVerdict(nil), v...)
		sort.Slice(out, func(i, j int) bool {
			if out[i].Start != out[j].Start {
				return out[i].Start < out[j].Start
			}
			return out[i].IDHex < out[j].IDHex
		})
		return out
	}
	wiredVerdicts := sortVerdicts(wiredW.Verdicts())
	// The transition *content* is mode-invariant, but the interleaving of
	// closure-driven rules (campaign, fired when forensics times an episode
	// out) against event-driven rules (defender-confinement) depends on how
	// coarsely a ladder rung batches its event deliveries — a fast-forwarded
	// span observes the timeout at a later stream position than per-bit
	// stepping.
	// Canonicalise into bit-time order and drop the emission sequence so the
	// comparison checks content, not reporting interleave.
	sortAlerts := func(v []watch.Alert) []watch.Alert {
		out := append([]watch.Alert(nil), v...)
		sort.SliceStable(out, func(i, j int) bool {
			if out[i].Time != out[j].Time {
				return out[i].Time < out[j].Time
			}
			if out[i].RuleID != out[j].RuleID {
				return out[i].RuleID < out[j].RuleID
			}
			return out[i].Reason < out[j].Reason
		})
		for i := range out {
			out[i].Seq = 0
		}
		return out
	}
	wiredLog := sortAlerts(wiredW.Alerts())
	for _, arm := range []struct {
		label string
		w     *watch.Engine
	}{
		{"frame-ff", fastW}, {"contend-ff", contendW},
		{"splice-ff", spliceW},
	} {
		if v := sortVerdicts(arm.w.Verdicts()); !reflect.DeepEqual(wiredVerdicts, v) {
			t.Fatalf("seed %d: SLO verdicts diverge exact vs %s:\n%+v\nvs\n%+v",
				seed, arm.label, wiredVerdicts, v)
		}
		if l := sortAlerts(arm.w.Alerts()); !reflect.DeepEqual(wiredLog, l) {
			t.Fatalf("seed %d: alert logs diverge exact vs %s:\n%+v\nvs\n%+v",
				seed, arm.label, wiredLog, l)
		}
		arm.w.Close()
	}
	// Forensics closes an incident mid-run only when a later same-ID
	// incident supersedes it, so exactly the last incident of each ID was
	// still open at Finalize and gets the recording-edge arguments.
	lastOfID := map[string]int{}
	for i, inc := range exactIncs {
		lastOfID[inc.IDHex] = i
	}
	var recomputed []watch.IncidentVerdict
	for i, inc := range exactIncs {
		atEnd, end := lastOfID[inc.IDHex] == i, int64(-1)
		if atEnd {
			end = fuzzTotalBits
		}
		recomputed = append(recomputed, watch.EvaluateIncident(inc, atEnd, end, watch.Config{}))
	}
	recomputed = sortVerdicts(recomputed)
	if !reflect.DeepEqual(wiredVerdicts, recomputed) {
		t.Fatalf("seed %d: live verdicts disagree with the pure evaluator over the forensics record:\n%+v\nvs\n%+v",
			seed, wiredVerdicts, recomputed)
	}
	wiredW.Close()
	return len(exactIncs)
}

// TestFastForwardDifferentialRandom sweeps a fixed seed range through the
// differential: random schedules, rival-replayer arbitration fights, attack
// start bits, and pinned-node mixes must produce bit-identical traces and
// identical TEC/REC/bus-off counters across all stepping modes.
func TestFastForwardDifferentialRandom(t *testing.T) {
	seeds := int64(30)
	if testing.Short() {
		seeds = 8
	}
	incidents := 0
	for seed := int64(1); seed <= seeds; seed++ {
		incidents += diffSeed(t, seed, true)
	}
	// The attack mix guarantees defender-ID spoofs across the sweep; if no
	// seed produced an incident, the forensics parity leg compared nothing.
	if incidents == 0 {
		t.Error("no seed in the sweep produced a forensics incident")
	}
}

// FuzzFastForwardDifferential lets the fuzzer explore seeds beyond the fixed
// sweep: any seed for which the fast path diverges from exact stepping is a
// crasher. Engagement floors are the fixed sweep's job.
func FuzzFastForwardDifferential(f *testing.F) {
	for _, seed := range []int64{1, 2, 7, 42, 99, 123, 1<<40 + 3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		diffSeed(t, seed, false)
	})
}
