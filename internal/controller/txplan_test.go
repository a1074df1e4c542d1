package controller

import (
	"math/rand"
	"slices"
	"testing"

	"michican/internal/bus"
	"michican/internal/can"
)

// genericTxPlan is the reference three-pass serialization (field generation,
// then CRC, then stuffing) that newTxPlanBase fuses into a single pass.
func genericTxPlan(f can.Frame) *txPlan {
	body := can.UnstuffedBody(&f)
	arbEndPos := can.Layout{Extended: f.Extended}.ArbEndPos()
	var s can.Stuffer
	s.Reset()
	wire := make([]can.Level, 0, len(body)+len(body)/4+3+can.EOFBits)
	isStuff := make([]bool, 0, cap(wire))
	arbEnd := 0
	for pos, b := range body {
		out := s.Next(b)
		wire = append(wire, out...)
		isStuff = append(isStuff, false)
		if len(out) == 2 {
			isStuff = append(isStuff, true)
		}
		if pos <= arbEndPos {
			arbEnd = len(wire)
		}
	}
	wire = append(wire, can.Recessive)
	ackIdx := len(wire)
	wire = append(wire, can.Recessive, can.Recessive)
	for i := 0; i < can.EOFBits; i++ {
		wire = append(wire, can.Recessive)
	}
	for len(isStuff) < len(wire) {
		isStuff = append(isStuff, false)
	}
	return &txPlan{bits: wire, arbEnd: arbEnd, isStuff: isStuff, ackIdx: ackIdx}
}

// basePlanSize is the size of the one object a base plan with an n-bit
// window is allocated as: the smallest size class allocBasePlan offers that
// holds the plan and its 3n+3 bytes of arrays.
func basePlanSize(n int) int {
	need := int(planHeader) + 3*n + IntermissionBits
	for _, class := range []int{288, 320, 352, 384, 416, 448, 480, 512, 576} {
		if need <= class {
			return class
		}
	}
	return -1
}

// TestTxPlanBaseAllocatesOnce pins the base serializer's cost: the plan,
// its bits, resolved span and stuff map are one object, sized to its window
// (a DLC-0 plan stays smaller than an 8-byte one), and the plan records that
// size for its source's ResidentBytes.
func TestTxPlanBaseAllocatesOnce(t *testing.T) {
	for dlc := 0; dlc <= can.MaxDataLen; dlc++ {
		f := can.Frame{ID: 0x173, Data: make([]byte, dlc)}
		if got := testing.AllocsPerRun(100, func() { newTxPlan(f) }); got != 1 {
			t.Errorf("DLC %d: newTxPlan makes %v allocations, want 1", dlc, got)
		}
		p := newTxPlan(f)
		if want := basePlanSize(len(p.bits)); int(p.size) != want {
			t.Errorf("DLC %d: plan records %d bytes, want its %d-byte object", dlc, p.size, want)
		}
	}
	if small, large := newTxPlan(can.Frame{ID: 0x173}).size, newTxPlan(can.Frame{ID: 0x173, Data: make([]byte, 8)}).size; small >= large {
		t.Errorf("a DLC-0 plan takes %d bytes, an 8-byte one %d", small, large)
	}
}

// TestTxPlanBaseMatchesGeneric differentially checks the fused single-pass
// serializer against the reference construction over random base-format
// frames (all IDs stressed via randomness, every DLC, data and remote).
func TestTxPlanBaseMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(f can.Frame) {
		t.Helper()
		got, want := newTxPlanBase(f), genericTxPlan(f)
		if len(got.bits) != len(want.bits) {
			t.Fatalf("frame %+v: wire len %d, want %d", f, len(got.bits), len(want.bits))
		}
		for i := range got.bits {
			if got.bits[i] != want.bits[i] || got.isStuff[i] != want.isStuff[i] {
				t.Fatalf("frame %+v: bit %d = (%v,%v), want (%v,%v)",
					f, i, got.bits[i], got.isStuff[i], want.bits[i], want.isStuff[i])
			}
		}
		if got.arbEnd != want.arbEnd || got.ackIdx != want.ackIdx {
			t.Fatalf("frame %+v: geometry (%d,%d), want (%d,%d)",
				f, got.arbEnd, got.ackIdx, want.arbEnd, want.ackIdx)
		}
		if !slices.Equal(got.resolved, resolveSpan(make([]can.Level, len(want.bits)+IntermissionBits), want.bits, want.ackIdx)) {
			t.Fatalf("frame %+v: resolved span differs from the window it resolves", f)
		}
	}
	// Stuffing-heavy corner IDs at every DLC.
	for _, id := range []can.ID{0x000, 0x7FF, 0x555, 0x0F0, 0x01} {
		for dlc := 0; dlc <= can.MaxDataLen; dlc++ {
			data := make([]byte, dlc)
			check(can.Frame{ID: id, Data: data})
			for i := range data {
				data[i] = 0xFF
			}
			check(can.Frame{ID: id, Data: data})
		}
		for reqLen := 0; reqLen <= can.MaxDataLen; reqLen++ {
			check(can.Frame{ID: id, Remote: true, RequestLen: reqLen})
		}
	}
	for i := 0; i < 2000; i++ {
		f := can.Frame{ID: can.ID(rng.Intn(1 << can.IDBits))}
		if rng.Intn(8) == 0 {
			f.Remote = true
			f.RequestLen = rng.Intn(can.MaxDataLen + 1)
		} else {
			f.Data = make([]byte, rng.Intn(can.MaxDataLen+1))
			rng.Read(f.Data)
		}
		check(f)
	}
}

// TestPlanCacheReuse checks that retransmissions of an equal frame reuse the
// cached serialization while the frame value handed back tracks the head.
func TestPlanCacheReuse(t *testing.T) {
	c := New(Config{})
	f := can.Frame{ID: 0x123, Data: []byte{1, 2, 3}}
	p1 := c.planFor(f)
	p2 := c.planFor(can.Frame{ID: 0x123, Data: []byte{1, 2, 3}})
	if p1 != p2 {
		t.Fatalf("equal frames did not share a plan")
	}
	p3 := c.planFor(can.Frame{ID: 0x123, Data: []byte{1, 2, 4}})
	if p3 == p1 {
		t.Fatalf("different payloads shared a plan")
	}
}

// TestEnqueueLeavesCallerPayload: a queued frame points at its plan's
// payload copy, not the caller's slice, so a caller that rewrites its buffer
// after Enqueue — the periodic senders do — neither changes the frame on
// the wire nor the plan another controller shares.
func TestEnqueueLeavesCallerPayload(t *testing.T) {
	b := bus.New(bus.Rate500k)
	var rx recorder
	src := NewPlanSource()
	tx := New(Config{Name: "tx", AutoRecover: true, Plans: src})
	b.Attach(tx)
	b.Attach(newTestController("rx", &rx))
	buf := make([]byte, 3)
	for seq := byte(1); seq <= 2; seq++ {
		copy(buf, []byte{seq, 2, 3})
		if err := tx.Enqueue(can.Frame{ID: 0x123, Data: buf}); err != nil {
			t.Fatal(err)
		}
		if f, _, _ := tx.queue.head(); &f.Data[0] == &buf[0] {
			t.Fatal("queued frame aliases the caller's payload")
		}
		copy(buf, []byte{0xFF, 0xFF, 0xFF})
	}
	b.Run(400)
	if len(rx.frames) != 2 || rx.frames[0].Data[0] != 1 || rx.frames[1].Data[0] != 2 || rx.frames[1].Data[1] != 2 {
		t.Fatalf("received %v, want payloads 010203 then 020203", rx.frames)
	}
	if err := src.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSpliceOfferReusesItsWindow: a controller with nothing to send declines
// with nil; one about to assert SOF offers its plan's window with the queued
// frame's receiver view, from the one window slot it owns. The window is the
// plan's own resolved span and publication id, the pair the defense keys its
// compiled summaries by.
func TestSpliceOfferReusesItsWindow(t *testing.T) {
	c := New(Config{Name: "tx"})
	if w := c.SpliceOffer(0); w != nil {
		t.Fatalf("idle controller with an empty queue offered %+v, want nil", w)
	}
	f := can.Frame{ID: 0x123, Data: []byte{1, 2, 3}}
	if err := c.Enqueue(f); err != nil {
		t.Fatal(err)
	}
	c.Observe(0, can.Recessive) // idle bus: assert SOF next bit
	w := c.SpliceOffer(1)
	if w == nil {
		t.Fatal("controller about to assert SOF declined to offer")
	}
	if again := c.SpliceOffer(1); again != w {
		t.Errorf("a second offer returned a new window")
	}
	if w.RxView.ID != f.ID || string(w.RxView.Data) != string(f.Data) ||
		len(w.Resolved) == 0 || w.Resolved[w.AckIdx] != can.Dominant {
		t.Errorf("offered window %+v does not describe frame %+v", w, f)
	}
	if p := c.planFor(f); w.PlanID != p.id || p.id != 0 || &w.Resolved[0] != &p.resolved[0] {
		t.Errorf("offered window (PlanID %d) is not the published plan %d's span", w.PlanID, p.id)
	}
}
