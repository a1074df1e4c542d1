package experiment

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"michican/internal/attack"
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/restbus"
	"michican/internal/trace"
)

// These tests pin the full fast-forward ladder's identity with per-bit
// stepping in isolation from the fuzz sweep, on a strictly periodic schedule
// where the splice tier carries most of the run: with no mutation, with an
// attacker attaching at a schedule-cycle edge or mid-cycle, and with a node
// detaching mid-cycle. Every mutation happens at a Run boundary, the only
// point external code may touch the bus.

const (
	// ladderTestCycle is the harmonic matrix's schedule cycle in bits at
	// 50 kbit/s: periods 5/10/20 ms are 250/500/1000 bits, lcm 1000.
	ladderTestCycle = int64(1000)
	// ladderTestTotal spans several rotations of the per-message rolling
	// counters (they advance 4/2/1 per cycle and wrap at 256).
	ladderTestTotal = 700 * ladderTestCycle
)

// harmonicMatrix is a three-message schedule with strictly harmonic periods
// (7 frame windows per 1000-bit cycle).
func harmonicMatrix() *restbus.Matrix {
	m := &restbus.Matrix{Vehicle: "fuzz", Bus: "harmonic"}
	for i, id := range []can.ID{0x100, 0x200, 0x300} {
		m.Messages = append(m.Messages, restbus.Message{
			ID:          id,
			Transmitter: fmt.Sprintf("ecu-%d", i),
			DLC:         i + 1,
			Period:      time.Duration(5*(1<<i)) * time.Millisecond,
		})
	}
	return m
}

// ladderOutcome is everything the ladder identity tests compare.
type ladderOutcome struct {
	Bits                []can.Level
	TEC, REC            []int
	TxSuccess, RxFrames []int
}

// runLadderScenario replays the harmonic matrix alongside two pure-receiver
// controllers (so a receiver still ACKs after one leaves), optionally
// mutating the node set at bit mutateAt (a Run boundary), and returns the
// resolved trace plus the surviving nodes' counters, and the splice-tier
// bits carried before the mutation.
func runLadderScenario(t *testing.T, mode diffMode, total, mutateAt int64,
	mutate func(bb *bus.Bus, leaver *controller.Controller, ctls *[]*controller.Controller)) (ladderOutcome, int64) {
	t.Helper()
	bb := bus.New(bus.Rate50k)
	bb.SetFastForward(mode != diffExact)
	bb.SetFrameFastForward(mode != diffExact)
	bb.SetContendFastForward(mode == diffContendFF || mode == diffSpliceFF)
	bb.SetSpliceFastForward(mode == diffSpliceFF)
	rep := restbus.NewReplayer("restbus", harmonicMatrix(), bus.Rate50k, rand.New(rand.NewSource(11)))
	bb.Attach(rep)
	leaver := controller.New(controller.Config{Name: "leaver", AutoRecover: true})
	bb.Attach(leaver)
	stayer := controller.New(controller.Config{Name: "stayer", AutoRecover: true})
	bb.Attach(stayer)
	rec := trace.NewRecorder()
	bb.AttachTap(rec)
	ctls := []*controller.Controller{rep.Controller(), leaver, stayer}

	var spliceBefore int64
	if mutateAt > 0 {
		bb.Run(mutateAt)
		spliceBefore = bb.SpliceForwardedBits()
		mutate(bb, leaver, &ctls)
		bb.Run(total - mutateAt)
	} else {
		bb.Run(total)
		spliceBefore = bb.SpliceForwardedBits()
	}

	var out ladderOutcome
	out.Bits = rec.Bits()
	for _, c := range ctls {
		st := c.Stats()
		out.TEC = append(out.TEC, c.TEC())
		out.REC = append(out.REC, c.REC())
		out.TxSuccess = append(out.TxSuccess, st.TxSuccess)
		out.RxFrames = append(out.RxFrames, st.RxSuccess)
	}
	return out, spliceBefore
}

// compareLadderOutcome fails on the first wire-trace or counter divergence.
func compareLadderOutcome(t *testing.T, label string, a, b ladderOutcome) {
	t.Helper()
	if !reflect.DeepEqual(a.Bits, b.Bits) {
		i := 0
		for i < len(a.Bits) && i < len(b.Bits) && a.Bits[i] == b.Bits[i] {
			i++
		}
		t.Fatalf("%s: wire traces diverge at bit %d (%d bits vs %d bits)",
			label, i, len(a.Bits), len(b.Bits))
	}
	a.Bits, b.Bits = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: counters diverge:\n%+v\nvs\n%+v", label, a, b)
	}
}

// TestLadderIdentityHarmonic runs the harmonic schedule exact and on the full
// ladder: the splice tier must carry the run, and the result must stay
// bit-identical to exact stepping.
func TestLadderIdentityHarmonic(t *testing.T) {
	exact, _ := runLadderScenario(t, diffExact, ladderTestTotal, 0, nil)
	ladder, spliced := runLadderScenario(t, diffSpliceFF, ladderTestTotal, 0, nil)
	if spliced == 0 {
		t.Error("splice fast path never engaged on the full ladder")
	}
	compareLadderOutcome(t, "exact vs splice-ff", exact, ladder)
}

// TestLadderIdentityAttach attaches a fabrication attacker once the ladder is
// splicing steadily — once exactly at a schedule-cycle edge and once
// mid-cycle. The run must stay bit-identical to exact stepping through the
// same attach.
func TestLadderIdentityAttach(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   int64
	}{
		{"at-cycle-edge", 300 * ladderTestCycle},
		{"mid-cycle", 300*ladderTestCycle + ladderTestCycle/2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			attach := func(bb *bus.Bus, _ *controller.Controller, ctls *[]*controller.Controller) {
				att := attack.NewFabrication("attacker", 0x100, []byte{0xA5, 0x5A}, 1500)
				bb.Attach(att)
				*ctls = append(*ctls, att.Controller())
			}
			exact, _ := runLadderScenario(t, diffExact, ladderTestTotal, tc.at, attach)
			ladder, spliced := runLadderScenario(t, diffSpliceFF, ladderTestTotal, tc.at, attach)
			if spliced == 0 {
				t.Error("splice fast path never engaged before the attach")
			}
			compareLadderOutcome(t, "exact vs splice-ff with attach "+tc.name, exact, ladder)
		})
	}
}

// TestLadderIdentityDetach detaches one pure-receiver controller mid-cycle,
// after the ladder has been splicing over the four-node set. The detach
// renumbers the nodes (and so invalidates every splice memo's per-node
// slots); the run must stay bit-identical to exact stepping through it.
func TestLadderIdentityDetach(t *testing.T) {
	detachAt := 300*ladderTestCycle + ladderTestCycle/2
	detach := func(bb *bus.Bus, leaver *controller.Controller, ctls *[]*controller.Controller) {
		if !bb.Detach(leaver) {
			panic("leaver not attached at detach time")
		}
		*ctls = append((*ctls)[:1], (*ctls)[2:]...) // replayer and stayer survive
	}
	exact, _ := runLadderScenario(t, diffExact, ladderTestTotal, detachAt, detach)
	ladder, spliced := runLadderScenario(t, diffSpliceFF, ladderTestTotal, detachAt, detach)
	if spliced == 0 {
		t.Error("splice fast path never engaged before the detach")
	}
	compareLadderOutcome(t, "exact vs splice-ff with mid-cycle detach", exact, ladder)
}
