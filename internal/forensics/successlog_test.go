package forensics

import (
	"reflect"
	"slices"
	"testing"

	"michican/internal/controller"
	"michican/internal/stats"
	"michican/internal/telemetry"
)

// benignHub is a hub with retention off, a restbus node a and a defender
// node b, and an engine subscribed to it.
func benignHub() (e *Engine, a, b telemetry.Probe) {
	hub := telemetry.NewHub()
	hub.RetainEvents(false)
	a, b = hub.Probe("restbus"), hub.Probe("defender")
	return NewEngine(hub), a, b
}

// benignFrames emits clean frames: each one a SOF, an arbitration win and a
// success, every fourth with a second transmitter that loses arbitration.
// It returns the bit time after the last frame.
func benignFrames(a, b telemetry.Probe, t int64, n int) int64 {
	for i := 0; i < n; i++ {
		id := int64(0x100 + i%32)
		a.Emit(t, telemetry.EvTxStart, id, 0)
		if i%4 == 0 {
			b.Emit(t, telemetry.EvTxStart, id+1, 0)
			b.Emit(t+11, telemetry.EvArbLost, 11, 0)
		}
		a.Emit(t+12, telemetry.EvArbWon, id, 0)
		a.Emit(t+110, telemetry.EvTxSuccess, id, 0)
		t += 130
	}
	return t
}

func (e *Engine) retainedSuccesses() int {
	n := 0
	for _, recs := range e.successes {
		n += len(recs)
	}
	return n
}

// TestSuccessLogBoundedOnBenignTraffic: with no incident open, no completed
// frame can ever be charged as leaked, so none may be kept.
func TestSuccessLogBoundedOnBenignTraffic(t *testing.T) {
	e, a, b := benignHub()
	end := benignFrames(a, b, 0, 100_000)
	e.Finalize(end)
	if n := e.retainedSuccesses(); n != 0 {
		t.Fatalf("success log retains %d records after 100000 benign frames, want 0", n)
	}
	if got := e.TxSuccessCount("restbus"); got != 100_000 {
		t.Fatalf("TxSuccessCount = %d, want 100000", got)
	}
	if st := e.Stats(); st.DroppedAttempts != 0 || len(e.Incidents()) != 0 {
		t.Fatalf("benign frames produced incidents or drops: %+v", st)
	}
}

// TestCleanFrameFoldAllocatesNothing: folding a healthy frame reuses the
// previous frame's attempt and tx map, and the hub's ordered delivery adds
// nothing per event.
func TestCleanFrameFoldAllocatesNothing(t *testing.T) {
	_, a, b := benignHub()
	next := benignFrames(a, b, 0, 10_000)
	frames := func() { next = benignFrames(a, b, next, 4) }
	if got := testing.AllocsPerRun(1000, frames); got != 0 {
		t.Fatalf("folding four clean frames allocates %v times, want 0", got)
	}
}

// campaignHub is a hub with retention off, two attackers, a MichiCAN
// defense and a restbus node, registered in that order, and an engine
// subscribed to it.
func campaignHub() (e *Engine, atk, dos, def, rx telemetry.Probe) {
	hub := telemetry.NewHub()
	hub.RetainEvents(false)
	atk, dos, def, rx = hub.Probe("attacker"), hub.Probe("dos"), hub.Probe("michican"), hub.Probe("restbus")
	return NewEngine(hub), atk, dos, def, rx
}

// destroyedAttempt emits one attempt of 0x173 at t that the defense destroys:
// the attacker's SOF, a detection at ID bit 9, a seven-bit pull over bits
// 13-19, the attacker's bit error with its TEC step, the receiver's stuff
// error with its REC step, and the shared error delimiter's end. The
// attacker's TEC steps 0→8 every time, so it stays error-active and never
// goes bus-off. It returns the SOF of the next attempt, close enough to stay
// in the same incident.
func destroyedAttempt(atk, def, rx telemetry.Probe, t int64) int64 {
	atk.Emit(t, telemetry.EvTxStart, 0x173, 0)
	def.Emit(t+9, telemetry.EvDetect, 9, 0)
	def.Emit(t+13, telemetry.EvPullStart, 0x173, 0)
	atk.Emit(t+14, telemetry.EvError, int64(controller.BitError), 1)
	atk.Emit(t+14, telemetry.EvTEC, 8, 0)
	rx.Emit(t+15, telemetry.EvError, int64(controller.StuffError), 0)
	rx.Emit(t+15, telemetry.EvREC, 1, 0)
	def.Emit(t+19, telemetry.EvPullEnd, 7, 0)
	rx.Emit(t+29, telemetry.EvErrorEnd, 0, 0)
	return t + 40
}

// TestDestroyedAttemptFoldAllocatesNothing: a destroyed attempt retires into
// the engine's spare slot like a clean one, so folding a campaign's attempts
// reuses one attempt, its maps and its slices. (The open incident's own TEC
// trajectory grows by one step per attempt, amortized.)
func TestDestroyedAttemptFoldAllocatesNothing(t *testing.T) {
	e, atk, _, def, rx := campaignHub()
	next := int64(0)
	for i := 0; i < 200; i++ {
		next = destroyedAttempt(atk, def, rx, next)
	}
	attempt := func() { next = destroyedAttempt(atk, def, rx, next) }
	if got := testing.AllocsPerRun(1000, attempt); got != 0 {
		t.Fatalf("folding a destroyed attempt allocates %v times, want 0", got)
	}
	e.Finalize(next)
	incs := e.Incidents()
	if len(incs) != 1 || incs[0].Attempts != 1201 || incs[0].Eradicated {
		t.Fatalf("want one open 1201-attempt incident with no bus-off, got %d incidents: %+v", len(incs), incs)
	}
}

// TestRecycledAttemptCarriesNothingOver folds four attempts through the one
// recycled attempt — a destroyed one that ends in bus-off, a dropped one
// (a new SOF before it resolved), a clean success, and a destroyed same-SOF
// duel of another ID — and checks the two incidents field by field: no
// transmitter, dead mark, error, detection, pull, TEC step or bus-off of one
// attempt survives into the next.
func TestRecycledAttemptCarriesNothingOver(t *testing.T) {
	e, atk, dos, def, rx := campaignHub()
	// Destroyed, with a dead transmitter, a TEC step into bus-off and a pull.
	atk.Emit(1000, telemetry.EvTxStart, 0x173, 0)
	def.Emit(1009, telemetry.EvDetect, 9, 0)
	def.Emit(1013, telemetry.EvPullStart, 0x173, 0)
	atk.Emit(1014, telemetry.EvError, int64(controller.BitError), 1)
	atk.Emit(1014, telemetry.EvTEC, 256, 248)
	atk.Emit(1014, telemetry.EvBusOff, 0, 0)
	rx.Emit(1015, telemetry.EvError, int64(controller.StuffError), 0)
	rx.Emit(1015, telemetry.EvREC, 1, 0)
	def.Emit(1019, telemetry.EvPullEnd, 7, 0)
	rx.Emit(1029, telemetry.EvErrorEnd, 0, 0)
	// Dropped: dos dies with a TEC step after a detection and a pull that
	// never ends, and no error delimiter comes before the next SOF.
	dos.Emit(1100, telemetry.EvTxStart, 0x2A0, 0)
	def.Emit(1109, telemetry.EvDetect, 9, 0)
	def.Emit(1113, telemetry.EvPullStart, 0x2A0, 0)
	dos.Emit(1114, telemetry.EvError, int64(controller.BitError), 1)
	dos.Emit(1114, telemetry.EvTEC, 8, 0)
	// A clean success.
	rx.Emit(1200, telemetry.EvTxStart, 0x100, 0)
	rx.Emit(1212, telemetry.EvArbWon, 0x100, 0)
	rx.Emit(1300, telemetry.EvTxSuccess, 0x100, 0)
	// Destroyed: dos and restbus both send 0x064 from the same SOF. restbus
	// dies first; its delimiter does not close the attempt while dos is
	// still live, and dos's own delimiter does.
	dos.Emit(1400, telemetry.EvTxStart, 0x064, 0)
	rx.Emit(1400, telemetry.EvTxStart, 0x064, 0)
	def.Emit(1407, telemetry.EvDetect, 7, 0)
	def.Emit(1413, telemetry.EvPullStart, 0x064, 0)
	rx.Emit(1414, telemetry.EvError, int64(controller.BitError), 1)
	rx.Emit(1414, telemetry.EvTEC, 8, 0)
	def.Emit(1419, telemetry.EvPullEnd, 6, 0)
	rx.Emit(1430, telemetry.EvErrorEnd, 0, 0)
	dos.Emit(1440, telemetry.EvError, int64(controller.BitError), 1)
	dos.Emit(1440, telemetry.EvTEC, 16, 8)
	dos.Emit(1455, telemetry.EvErrorEnd, 0, 0)
	e.Finalize(2000)

	summary := func(bit float64) stats.Summary {
		var a stats.Accumulator
		a.Add(bit)
		return a.Summarize()
	}
	want := []Incident{{
		ID: 0x173, IDHex: "0x173", Start: 1000, End: 1021, Attempts: 1,
		Attacker: "attacker", Defender: "michican",
		Detections: 1, FirstDetectAt: 1009, DetectionBits: summary(9),
		Counterattacks: 1, PullBitsTotal: 7,
		TEC:      []TECStep{{At: 1014, Value: 256, Prev: 248}},
		BusOffAt: 1014, RecoveredAt: -1, Eradicated: true,
		Causality: []ChainLink{
			{At: 1000, Node: "attacker", Step: "tx_start"},
			{At: 1009, Node: "michican", Step: "detect@bit9"},
			{At: 1013, Node: "michican", Step: "counterattack(7 bits)"},
			{At: 1014, Node: "", Step: "error(bit)"},
			{At: 1014, Node: "attacker", Step: "tec 248→256"},
			{At: 1014, Node: "attacker", Step: "bus_off"},
		},
	}, {
		// dos and restbus tie on destroyed attempts; dos registered first.
		ID: 0x064, IDHex: "0x064", Start: 1400, End: 1447, Attempts: 1,
		Attacker: "dos", Defender: "michican",
		Detections: 1, FirstDetectAt: 1407, DetectionBits: summary(7),
		Counterattacks: 1, PullBitsTotal: 6,
		TEC:      []TECStep{{At: 1440, Value: 16, Prev: 8}},
		BusOffAt: -1, RecoveredAt: -1,
		Causality: []ChainLink{
			{At: 1400, Node: "dos", Step: "tx_start"},
			{At: 1400, Node: "restbus", Step: "tx_start"},
			{At: 1407, Node: "michican", Step: "detect@bit7"},
			{At: 1413, Node: "michican", Step: "counterattack(6 bits)"},
			{At: 1414, Node: "", Step: "error(bit)"},
		},
	}}
	if got := e.Incidents(); !reflect.DeepEqual(got, want) {
		t.Errorf("incidents\n got %+v\nwant %+v", got, want)
	}
	if st := e.Stats(); st.DroppedAttempts != 1 || st.StrayAttempts != 0 {
		t.Errorf("dropped %d, stray %d attempts; want 1 and 0", st.DroppedAttempts, st.StrayAttempts)
	}
}

// TestSlabListsMatchAppend grows three lists through one slab in an
// interleaved order, as a toggling attacker's two open incidents and a
// third ID's do, and checks each against plain append, that every snapshot
// taken along the way (clipped, as resolve hands them out) keeps its
// contents, and that the slab does not copy a list on every step.
func TestSlabListsMatchAppend(t *testing.T) {
	var s slab[int]
	lists, refs := make([][]int, 3), make([][]int, 3)
	var snaps, snapRefs [][]int
	moves := 0
	for i := 0; i < 300; i++ {
		k := i % 3
		if i%7 == 0 {
			k = 2
		}
		before := lists[k]
		lists[k] = s.extend(lists[k], i, -i)
		refs[k] = append(refs[k], i, -i)
		if len(before) > 0 && &before[:1][0] != &lists[k][0] {
			moves++
		}
		if i%11 == 0 {
			snaps = append(snaps, slices.Clip(lists[k]))
			snapRefs = append(snapRefs, slices.Clone(refs[k]))
		}
	}
	for k := range lists {
		if !slices.Equal(lists[k], refs[k]) {
			t.Fatalf("list %d = %v, want %v", k, lists[k], refs[k])
		}
	}
	for i := range snaps {
		if !slices.Equal(snaps[i], snapRefs[i]) {
			t.Fatalf("snapshot %d changed: %v, want %v", i, snaps[i], snapRefs[i])
		}
	}
	if moves > 30 {
		t.Fatalf("%d moves for 300 interleaved extends: reservations are not doubling", moves)
	}
}
