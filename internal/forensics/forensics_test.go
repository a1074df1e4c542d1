package forensics_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/experiment"
	"michican/internal/forensics"
	"michican/internal/telemetry"
)

// campaignEmitter drives a synthetic spoof-fight event stream through a hub:
// the exact per-node event grammar the simulation emits, without running the
// simulation. Each destroyed attempt is the canonical MichiCAN exchange — the
// attacker's SOF, the defender's verdict at ID bit 9, a 7-bit counterattack
// pull, the attacker's bit error and TEC(+8) bump, and the shared error
// delimiter reported by the surviving receiver.
type campaignEmitter struct {
	att, def telemetry.Probe
	tec      int64
}

const (
	campaignID      = 0x173
	attemptSpacing  = 43 // SOF-to-SOF distance between consecutive attempts
	attemptLastBusy = 23 // last dominant bit of each attempt, relative to SOF
)

// destroyAttempt emits one destroyed attempt starting at t and returns the
// attacker's post-bump TEC. busOff marks the final attempt of an eradication
// campaign: the attacker crosses the bus-off threshold and, having left the
// bus, never reports its own error delimiter.
func (c *campaignEmitter) destroyAttempt(t int64, busOff bool) {
	c.att.Emit(t, telemetry.EvTxStart, campaignID, 0)
	c.def.Emit(t+12, telemetry.EvDetect, 9, 0)
	c.def.Emit(t+12, telemetry.EvPullStart, 0, 0)
	c.att.Emit(t+14, telemetry.EvError, int64(controller.BitError), 1)
	c.att.Emit(t+14, telemetry.EvTEC, c.tec+8, c.tec)
	c.tec += 8
	if busOff {
		c.att.Emit(t+14, telemetry.EvBusOff, 0, 0)
	}
	c.def.Emit(t+20, telemetry.EvPullEnd, 7, 0)
	c.def.Emit(t+31, telemetry.EvErrorEnd, 0, 0)
}

func causalitySteps(inc forensics.Incident) string {
	var steps []string
	for _, l := range inc.Causality {
		steps = append(steps, l.Step)
	}
	return strings.Join(steps, ",")
}

// TestEngineFullCampaign folds a complete 32-attempt eradication campaign and
// checks every field of the reconstructed incident.
func TestEngineFullCampaign(t *testing.T) {
	hub := telemetry.NewHub()
	hub.RetainEvents(false)
	eng := forensics.NewEngine(hub)
	defer eng.Close()

	em := &campaignEmitter{att: hub.Probe("attacker"), def: hub.Probe("defender")}
	const t0 = int64(100)
	for i := 0; i < forensics.FullCampaignAttempts; i++ {
		em.destroyAttempt(t0+int64(i)*attemptSpacing, i == forensics.FullCampaignAttempts-1)
	}
	busOffAt := t0 + 31*attemptSpacing + 14
	recoverAt := busOffAt + int64(controller.RecoverySequences*controller.RecoveryIdleBits)
	em.att.Emit(recoverAt, telemetry.EvRecover, 0, 0)
	end := recoverAt + 100
	eng.Finalize(end)

	incs := eng.Incidents()
	if len(incs) != 1 {
		t.Fatalf("got %d incidents, want 1: %+v", len(incs), incs)
	}
	inc := incs[0]
	// The final attempt ends at the pull's last bit: the attacker crossed
	// straight into bus-off, so no active flag extended the episode.
	wantEnd := t0 + 31*attemptSpacing + 20
	if inc.Start != t0 || inc.End != wantEnd {
		t.Errorf("span [%d, %d], want [%d, %d]", inc.Start, inc.End, t0, wantEnd)
	}
	if inc.IDHex != "0x173" || inc.Attempts != 32 {
		t.Errorf("id %s attempts %d, want 0x173/32", inc.IDHex, inc.Attempts)
	}
	if inc.Attacker != "attacker" || inc.Defender != "defender" {
		t.Errorf("attribution %q vs %q, want attacker vs defender", inc.Attacker, inc.Defender)
	}
	if inc.Detections != 32 || inc.FirstDetectAt != t0+12 {
		t.Errorf("detections %d first@%d, want 32 @%d", inc.Detections, inc.FirstDetectAt, t0+12)
	}
	db := inc.DetectionBits
	if db.N != 32 || db.Mean != 9 || db.Min != 9 || db.Max != 9 {
		t.Errorf("detection bits summary %+v, want 32×9", db)
	}
	if inc.Counterattacks != 32 || inc.PullBitsTotal != 32*7 {
		t.Errorf("counterattacks %d pull bits %d, want 32/224", inc.Counterattacks, inc.PullBitsTotal)
	}
	if inc.FramesLeaked != 0 {
		t.Errorf("frames leaked %d, want 0", inc.FramesLeaked)
	}
	if len(inc.TEC) != 32 {
		t.Fatalf("TEC trajectory has %d steps, want 32", len(inc.TEC))
	}
	if first, last := inc.TEC[0], inc.TEC[31]; first.Prev != 0 || first.Value != 8 ||
		last.Prev != 248 || last.Value != int64(controller.BusOffThreshold) {
		t.Errorf("TEC trajectory ends %+v → %+v", first, last)
	}
	if !inc.Eradicated || inc.BusOffAt != busOffAt || inc.RecoveredAt != recoverAt {
		t.Errorf("eradication %v busoff@%d recovered@%d, want true/%d/%d",
			inc.Eradicated, inc.BusOffAt, inc.RecoveredAt, busOffAt, recoverAt)
	}
	steps := causalitySteps(inc)
	for _, want := range []string{"tx_start", "detect@bit9", "counterattack(7 bits)",
		"error(bit)", "tec 248→256", "bus_off", "recover"} {
		if !strings.Contains(steps, want) {
			t.Errorf("causality chain missing %q (have %s)", want, steps)
		}
	}

	if got := forensics.Complete(incs, end); len(got) != 1 {
		t.Errorf("Complete dropped a full 32-attempt campaign")
	}
	if got := eng.FirstDetectionAt(); got != t0+12 {
		t.Errorf("FirstDetectionAt = %d, want %d", got, t0+12)
	}
	if got := eng.FirstBusOffAt("attacker"); got != busOffAt {
		t.Errorf("FirstBusOffAt = %d, want %d", got, busOffAt)
	}
	sums := eng.Summaries()
	if len(sums) != 1 || sums[0].Incidents != 1 || sums[0].Attempts != 32 ||
		sums[0].EpisodeBits.N != 1 || sums[0].EpisodeBits.Mean != float64(inc.Bits()) {
		t.Errorf("summaries = %+v", sums)
	}
	st := eng.Stats()
	if !st.Finalized || st.RecordingEnd != end || st.DroppedAttempts != 0 || st.StrayAttempts != 0 {
		t.Errorf("engine stats = %+v", st)
	}
}

// TestIncidentSnapshotsStayUnchanged: a resolved incident shares its TEC
// trajectory and causality chain with the engine, so neither may change as
// the campaign goes on, and a consumer appending to them must not reach
// into the engine's copy.
func TestIncidentSnapshotsStayUnchanged(t *testing.T) {
	hub := telemetry.NewHub()
	hub.RetainEvents(false)
	eng := forensics.NewEngine(hub)
	defer eng.Close()
	em := &campaignEmitter{att: hub.Probe("attacker"), def: hub.Probe("defender")}
	const t0 = int64(100)
	for i := 0; i < 10; i++ {
		em.destroyAttempt(t0+int64(i)*attemptSpacing, false)
	}
	hub.Flush() // release the reorder window into the fold
	snap := eng.Incidents()[0]
	tec := append([]forensics.TECStep(nil), snap.TEC...)
	chain := append([]forensics.ChainLink(nil), snap.Causality...)
	// A consumer's appends must copy rather than write into the engine.
	grown := append(snap.TEC, forensics.TECStep{At: -1, Value: -1, Prev: -1})
	for i := 10; i < forensics.FullCampaignAttempts; i++ {
		em.destroyAttempt(t0+int64(i)*attemptSpacing, i == forensics.FullCampaignAttempts-1)
	}
	hub.Flush()
	erad := eng.Incidents()[0] // bus-off hops in, recovery still to come
	eradChain := append([]forensics.ChainLink(nil), erad.Causality...)
	grownChain := append(erad.Causality, forensics.ChainLink{At: -1, Step: "bogus"})
	em.att.Emit(t0+40_000, telemetry.EvRecover, 0, 0)
	eng.Finalize(t0 + 40_100)

	if !reflect.DeepEqual(snap.TEC, tec) || !reflect.DeepEqual(snap.Causality, chain) ||
		!reflect.DeepEqual(erad.Causality, eradChain) {
		t.Fatal("a snapshot's TEC trajectory or causality chain changed as the campaign went on")
	}
	if grown[10].At != -1 || grownChain[len(eradChain)].Step != "bogus" {
		t.Fatal("the engine wrote into a consumer's appended storage")
	}
	inc := eng.Incidents()[0]
	if len(inc.TEC) != forensics.FullCampaignAttempts {
		t.Fatalf("final trajectory has %d steps, want %d", len(inc.TEC), forensics.FullCampaignAttempts)
	}
	for i, s := range inc.TEC {
		if s.Prev != int64(8*i) || s.Value != int64(8*(i+1)) {
			t.Fatalf("final trajectory step %d = %+v", i, s)
		}
	}
	if got := causalitySteps(inc); got != "tx_start,detect@bit9,counterattack(7 bits),error(bit),tec 248→256,bus_off,recover" {
		t.Fatalf("final causality chain %s", got)
	}
}

// TestEngineEpisodeGapAndCompleteness checks that a same-ID gap longer than
// EpisodeGapBits splits incidents and that Complete drops a short trailing
// incident near the recording edge.
func TestEngineEpisodeGapAndCompleteness(t *testing.T) {
	hub := telemetry.NewHub()
	hub.RetainEvents(false)
	eng := forensics.NewEngine(hub)
	defer eng.Close()

	em := &campaignEmitter{att: hub.Probe("attacker"), def: hub.Probe("defender")}
	const t0 = int64(100)
	for i := int64(0); i < 3; i++ {
		em.destroyAttempt(t0+i*attemptSpacing, false)
	}
	t1 := t0 + 2*attemptSpacing + attemptLastBusy + forensics.EpisodeGapBits + 200
	for i := int64(0); i < 3; i++ {
		em.destroyAttempt(t1+i*attemptSpacing, false)
	}
	end := t1 + 3*attemptSpacing + 50 // well inside the edge margin
	eng.Finalize(end)

	incs := eng.Incidents()
	if len(incs) != 2 {
		t.Fatalf("got %d incidents, want 2 (gap %d should split)", len(incs), forensics.EpisodeGapBits)
	}
	if incs[0].Attempts != 3 || incs[1].Attempts != 3 || incs[0].ID != incs[1].ID {
		t.Errorf("incident shapes: %+v", incs)
	}
	if incs[0].Eradicated || incs[1].Eradicated {
		t.Error("no bus-off was emitted, yet an incident reads eradicated")
	}
	// The trailing 3-attempt incident ends within the edge margin: still in
	// progress, so the completeness filter drops it.
	if got := forensics.Complete(incs, end); len(got) != 1 || got[0].Start != t0 {
		t.Errorf("Complete = %+v, want only the first incident", got)
	}
	// In-flight view: the second incident has not been closed by a gap.
	inflight := eng.InFlight()
	if len(inflight) != 1 || inflight[0].Start != t1 {
		t.Errorf("InFlight = %+v, want the trailing incident", inflight)
	}
	sums := eng.Summaries()
	if len(sums) != 1 || sums[0].Incidents != 2 || sums[0].Attempts != 6 || sums[0].EpisodeBits.N != 2 {
		t.Errorf("summaries = %+v", sums)
	}
}

// TestEngineFramesLeaked checks that a complete spoofed frame the attacker
// slips through mid-incident is charged to it at resolution time.
func TestEngineFramesLeaked(t *testing.T) {
	hub := telemetry.NewHub()
	hub.RetainEvents(false)
	eng := forensics.NewEngine(hub)
	defer eng.Close()

	em := &campaignEmitter{att: hub.Probe("attacker"), def: hub.Probe("defender")}
	const t0 = int64(100)
	em.destroyAttempt(t0, false)
	// A leaked frame: the attacker transmits the spoofed ID to completion.
	em.att.Emit(t0+200, telemetry.EvTxStart, campaignID, 0)
	em.att.Emit(t0+310, telemetry.EvTxSuccess, campaignID, 0)
	// The next SOF must clear the decoder's 11-recessive idle rule (>3 bits
	// past the completed frame's end) or it reads as stray noise.
	em.destroyAttempt(t0+400, false)
	eng.Finalize(t0 + 3000)

	incs := eng.Incidents()
	if len(incs) != 1 {
		t.Fatalf("got %d incidents, want 1: %+v", len(incs), incs)
	}
	inc := incs[0]
	if inc.Attempts != 2 || inc.Attacker != "attacker" {
		t.Errorf("attempts %d attacker %q, want 2 attempts by attacker", inc.Attempts, inc.Attacker)
	}
	if inc.FramesLeaked != 1 {
		t.Errorf("frames leaked = %d, want 1", inc.FramesLeaked)
	}
	if got := eng.TxSuccessCount("attacker"); got != 1 {
		t.Errorf("TxSuccessCount = %d, want 1", got)
	}
}

// TestEngineStrayAndDroppedAttempts exercises the wire-visibility bookkeeping:
// an unresolved attempt displaced by a new SOF is dropped, a SOF inside the
// previous frame's recessive tail is stray, and a counterattack pull that
// corrupts the arbitration region makes the attempt unattributable.
func TestEngineStrayAndDroppedAttempts(t *testing.T) {
	hub := telemetry.NewHub()
	hub.RetainEvents(false)
	eng := forensics.NewEngine(hub)
	defer eng.Close()

	att := hub.Probe("attacker")
	def := hub.Probe("defender")
	em := &campaignEmitter{att: att, def: def}

	// Dropped: a SOF with no wire resolution before the next SOF.
	att.Emit(100, telemetry.EvTxStart, campaignID, 0)
	em.destroyAttempt(600, false)

	// Stray: a completed frame ends at t=1350; a SOF 2 bits later sits inside
	// its recessive tail, so the decoder never sees it.
	att.Emit(1240, telemetry.EvTxStart, campaignID, 0)
	att.Emit(1350, telemetry.EvTxSuccess, campaignID, 0)
	att.Emit(1352, telemetry.EvTxStart, campaignID, 0)
	att.Emit(1360, telemetry.EvError, int64(controller.BitError), 1)
	att.Emit(1360, telemetry.EvTEC, 16, 8)
	def.Emit(1374, telemetry.EvErrorEnd, 0, 0)

	// Unattributable: a pull landing inside the stuffed SOF+ID region corrupts
	// the bits the decoder needs for IDComplete.
	att.Emit(2000, telemetry.EvTxStart, campaignID, 0)
	def.Emit(2003, telemetry.EvPullStart, 0, 0)
	def.Emit(2010, telemetry.EvPullEnd, 7, 0)
	att.Emit(2004, telemetry.EvError, int64(controller.BitError), 1)
	att.Emit(2004, telemetry.EvTEC, 24, 16)
	def.Emit(2021, telemetry.EvErrorEnd, 0, 0)

	eng.Finalize(5000)

	incs := eng.Incidents()
	if len(incs) != 1 || incs[0].Attempts != 1 || incs[0].Start != 600 {
		t.Fatalf("incidents = %+v, want one single-attempt incident at 600", incs)
	}
	st := eng.Stats()
	if st.DroppedAttempts != 2 {
		t.Errorf("dropped attempts = %d, want 2 (displaced SOF + corrupted ID)", st.DroppedAttempts)
	}
	if st.StrayAttempts != 1 {
		t.Errorf("stray attempts = %d, want 1", st.StrayAttempts)
	}
}

// referenceIncidents rebuilds a live engine's incidents from the hub's
// retained log: the log replays, in emission order, through a fresh hub
// with the same nodes and an engine of its own, and every incident's
// FramesLeaked is recounted from the whole log as the attacker's successes
// of the incident's ID inside [Start, End].
func referenceIncidents(hub *telemetry.Hub, finalizeAt int64) []forensics.Incident {
	evs := hub.Events()
	replay := telemetry.NewHub()
	var probes []telemetry.Probe
	for _, name := range hub.Nodes() {
		probes = append(probes, replay.Probe(name))
	}
	ref := forensics.NewEngine(replay)
	for _, ev := range evs {
		probes[ev.Node].Emit(ev.Time, ev.Kind, ev.A, ev.B)
	}
	if finalizeAt >= 0 {
		ref.Finalize(finalizeAt)
	}
	incs := ref.Incidents()
	for i := range incs {
		inc := &incs[i]
		inc.FramesLeaked = 0
		for _, ev := range evs {
			if ev.Kind == telemetry.EvTxSuccess && can.ID(ev.A) == inc.ID && hub.NodeName(ev.Node) == inc.Attacker &&
				ev.Time >= inc.Start && ev.Time <= inc.End {
				inc.FramesLeaked++
			}
		}
	}
	return incs
}

// checkAgainstReference compares every field of the live engine's incidents
// with the reference and returns the frames leaked across them.
func checkAgainstReference(t *testing.T, label string, hub *telemetry.Hub, eng *forensics.Engine, finalizeAt int64) int {
	t.Helper()
	got, want := eng.Incidents(), referenceIncidents(hub, finalizeAt)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: live incidents differ from the retained-log reference:\n got  %+v\n want %+v", label, got, want)
	}
	leaked := 0
	for _, inc := range got {
		leaked += inc.FramesLeaked
	}
	return leaked
}

// TestIncidentsMatchRetainedLogReference is the differential for the bounded
// success log: on the synthetic leak case and on attacked fleet vehicles, the
// live engine's incidents — open ones mid-run and closed ones at the end —
// match a reference that keeps every event.
func TestIncidentsMatchRetainedLogReference(t *testing.T) {
	t.Run("leak", func(t *testing.T) {
		hub := telemetry.NewHub()
		eng := forensics.NewEngine(hub)
		defer eng.Close()
		em := &campaignEmitter{att: hub.Probe("attacker"), def: hub.Probe("defender")}
		const t0 = int64(100)
		em.destroyAttempt(t0, false)
		em.att.Emit(t0+200, telemetry.EvTxStart, campaignID, 0)
		em.att.Emit(t0+310, telemetry.EvTxSuccess, campaignID, 0)
		em.destroyAttempt(t0+400, false)
		// A second incident of the same ID, past the episode gap, closes the
		// first mid-run; a leak after the first's end is charged to neither.
		em.att.Emit(t0+1000, telemetry.EvTxStart, campaignID, 0)
		em.att.Emit(t0+1110, telemetry.EvTxSuccess, campaignID, 0)
		em.destroyAttempt(t0+2000, false)
		em.att.Emit(t0+2100, telemetry.EvTxStart, campaignID, 0)
		em.att.Emit(t0+2210, telemetry.EvTxSuccess, campaignID, 0)
		em.destroyAttempt(t0+2300, false)
		eng.Finalize(t0 + 5000)
		if leaked := checkAgainstReference(t, "leak", hub, eng, t0+5000); leaked != 2 {
			t.Fatalf("frames leaked across incidents = %d, want 2", leaked)
		}
		if n := len(eng.Incidents()); n != 2 {
			t.Fatalf("got %d incidents, want 2", n)
		}
	})
	t.Run("in-flight", func(t *testing.T) {
		for _, prior := range []bool{false, true} {
			// The attacker's frame completes while the defender's attempt of the
			// same ID is in flight. That attempt is destroyed and opens an
			// incident the attacker then dominates (closing the ID's prior
			// incident, when there is one), so the success is a leak the engine
			// had to keep before the incident existed.
			hub := telemetry.NewHub()
			eng := forensics.NewEngine(hub)
			defer eng.Close()
			em := &campaignEmitter{att: hub.Probe("attacker"), def: hub.Probe("defender")}
			if prior {
				em.destroyAttempt(100, false)
			}
			const t0 = int64(1100)
			em.def.Emit(t0, telemetry.EvTxStart, campaignID, 0)
			em.att.Emit(t0+5, telemetry.EvTxSuccess, campaignID, 0)
			em.def.Emit(t0+14, telemetry.EvError, int64(controller.BitError), 1)
			em.def.Emit(t0+14, telemetry.EvTEC, 8, 0)
			em.att.Emit(t0+31, telemetry.EvErrorEnd, 0, 0)
			em.destroyAttempt(t0+100, false)
			em.destroyAttempt(t0+143, false)
			eng.Finalize(t0 + 5000)
			label := fmt.Sprintf("in-flight (prior incident %v)", prior)
			if leaked := checkAgainstReference(t, label, hub, eng, t0+5000); leaked != 1 {
				t.Fatalf("%s: frames leaked = %d, want 1: %+v", label, leaked, eng.Incidents())
			}
		}
	})
	for _, attack := range []experiment.FleetAttack{experiment.FleetAttackSpoof, experiment.FleetAttackDoS, experiment.FleetAttackToggle} {
		t.Run(string(attack), func(t *testing.T) {
			const horizon = 1 << 20
			v, err := experiment.NewFleetVehicle(experiment.FleetVehicleSpec{
				Seed: 7, Load: 0.3, Attack: attack, HorizonBits: horizon,
			})
			if err != nil {
				t.Fatal(err)
			}
			v.Hub().RetainEvents(true)
			eng := forensics.NewEngine(v.Hub())
			defer eng.Close()
			v.Advance(horizon / 2)
			checkAgainstReference(t, "mid-run", v.Hub(), eng, -1)
			v.Advance(horizon / 2)
			eng.Finalize(v.Now())
			checkAgainstReference(t, "final", v.Hub(), eng, v.Now())
			if n := len(eng.Incidents()); n < 2 {
				t.Fatalf("%d incidents; the differential needs closed ones", n)
			}
		})
	}
}

// incidentAllocBudget bounds what folding one incident costs the engine,
// counted over whole attacked runs: its state, its causality steps and its
// share of the slab chunks its TEC trajectory and chain come from.
const incidentAllocBudget = 8

// TestIncidentFoldAllocationsPerIncident is the engine's allocation guard on
// real traffic: the recorded event streams of a spoof, a DoS and a toggle
// vehicle replay into fresh engines, and folding every event, finalizing and
// listing the incidents may allocate at most incidentAllocBudget times per
// incident.
func TestIncidentFoldAllocationsPerIncident(t *testing.T) {
	const horizon = 1 << 20
	var allocs uint64
	incidents := 0
	for _, attack := range []experiment.FleetAttack{experiment.FleetAttackSpoof, experiment.FleetAttackDoS, experiment.FleetAttackToggle} {
		v, err := experiment.NewFleetVehicle(experiment.FleetVehicleSpec{
			Seed: 7, Load: 0.3, Attack: attack, HorizonBits: horizon,
		})
		if err != nil {
			t.Fatal(err)
		}
		v.Hub().RetainEvents(true)
		v.Advance(horizon)
		v.Finalize()
		evs := v.Hub().Events()
		replay := telemetry.NewHub()
		replay.RetainEvents(false)
		var probes []telemetry.Probe
		for _, name := range v.Hub().Nodes() {
			probes = append(probes, replay.Probe(name))
		}
		eng := forensics.NewEngine(replay)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, ev := range evs {
			probes[ev.Node].Emit(ev.Time, ev.Kind, ev.A, ev.B)
		}
		eng.Finalize(horizon)
		n := len(eng.Incidents())
		runtime.ReadMemStats(&after)
		eng.Close()
		if n == 0 {
			t.Fatalf("%s: no incidents to measure", attack)
		}
		allocs += after.Mallocs - before.Mallocs
		incidents += n
	}
	per := float64(allocs) / float64(incidents)
	t.Logf("%d allocations over %d incidents: %.2f per incident", allocs, incidents, per)
	if per > incidentAllocBudget {
		t.Fatalf("folding an incident allocates %.2f times, want at most %d", per, incidentAllocBudget)
	}
}
