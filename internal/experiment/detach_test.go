package experiment

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/restbus"
	"michican/internal/trace"
)

// findMidFrameBit returns a bit index inside the nth observed frame (offset
// bits past its SOF), or -1 when the trace holds fewer frames.
func findMidFrameBit(bits []can.Level, nth, offset int) int64 {
	idle := 0
	frames := 0
	for i, b := range bits {
		if b == can.Recessive {
			idle++
			continue
		}
		if idle >= int(can.IdleForSOF) {
			frames++
			if frames == nth {
				return int64(i + offset)
			}
		}
		idle = 0
	}
	return -1
}

// detachOutcome is everything the detach differential compares.
type detachOutcome struct {
	Bits                []can.Level
	TEC, REC            []int
	TxSuccess, RxFrames []int
}

// runDetachScenario runs a three-message restbus schedule alongside two
// pure-receiver controllers, detaches one of them at bit detachAt, and
// returns the resolved trace and the surviving nodes' counters.
func runDetachScenario(t *testing.T, mode SteppingMode, detachAt int64) (detachOutcome, *bus.Bus) {
	t.Helper()
	matrix := &restbus.Matrix{Vehicle: "fuzz", Bus: "detach"}
	for i, id := range []can.ID{0x100, 0x200, 0x300} {
		matrix.Messages = append(matrix.Messages, restbus.Message{
			ID:          id,
			Transmitter: "ecu",
			DLC:         i + 2,
			Period:      time.Duration(4+2*i) * time.Millisecond,
		})
	}
	bb := bus.New(bus.Rate50k)
	if err := applyMode(bb, mode); err != nil {
		t.Fatal(err)
	}
	rep := restbus.NewReplayer("restbus", matrix, bus.Rate50k, rand.New(rand.NewSource(7)))
	bb.Attach(rep)
	leaver := controller.New(controller.Config{Name: "leaver", AutoRecover: true})
	bb.Attach(leaver)
	stayer := controller.New(controller.Config{Name: "stayer", AutoRecover: true})
	bb.Attach(stayer)
	rec := trace.NewRecorder()
	bb.AttachTap(rec)

	const total = int64(20_000) // 400 ms of bus time at 50 kbit/s
	bb.Run(detachAt)
	if !bb.Detach(leaver) {
		t.Fatalf("mode %s: leaver not attached at detach time", mode)
	}
	bb.Run(total - detachAt)

	var out detachOutcome
	out.Bits = rec.Bits()
	for _, c := range []*controller.Controller{rep.Controller(), stayer} {
		st := c.Stats()
		out.TEC = append(out.TEC, c.TEC())
		out.REC = append(out.REC, c.REC())
		out.TxSuccess = append(out.TxSuccess, st.TxSuccess)
		out.RxFrames = append(out.RxFrames, st.RxSuccess)
	}
	return out, bb
}

// TestDetachMidFrameDifferential detaches a receiver in the middle of a
// frame — after the bus has already negotiated batch spans with it — and
// requires the remaining simulation to stay bit-identical to exact stepping.
// Regression test for the stale-proposal edge: the bus retains negotiation
// scratch across Run boundaries, and a Detach between Runs must invalidate
// it rather than deliver a span to a node set that no longer matches.
func TestDetachMidFrameDifferential(t *testing.T) {
	// Probe pass: detach at bit 1 (before any frame) and locate the third
	// frame's interior from the resulting exact trace. The schedule before
	// the detach bit is identical in every arm, so the position holds.
	probe, _ := runDetachScenario(t, ModeExact, 1)
	detachAt := findMidFrameBit(probe.Bits, 3, 15)
	if detachAt < 0 {
		t.Fatal("probe trace holds fewer than three frames")
	}

	exact, _ := runDetachScenario(t, ModeExact, detachAt)
	if findMidFrameBit(exact.Bits, 3, 15) != detachAt {
		t.Fatalf("detach bit %d is not inside the third frame of the exact run", detachAt)
	}
	fast, bb := runDetachScenario(t, ModeContendFF, detachAt)
	if bb.ContendForwardedBits() == 0 {
		t.Error("contend fast path never engaged")
	}
	if !reflect.DeepEqual(exact.Bits, fast.Bits) {
		i := 0
		for i < len(exact.Bits) && i < len(fast.Bits) && exact.Bits[i] == fast.Bits[i] {
			i++
		}
		t.Fatalf("traces diverge at bit %d (detach was at %d)", i, detachAt)
	}
	fast.Bits = nil
	want := exact
	want.Bits = nil
	if !reflect.DeepEqual(want, fast) {
		t.Fatalf("counters diverge:\n%+v\nvs\n%+v", want, fast)
	}
}
