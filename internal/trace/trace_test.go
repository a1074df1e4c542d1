package trace

import (
	mathbits "math/bits"
	"testing"

	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/core"
	"michican/internal/fsm"
)

func idle(n int) []can.Level {
	out := make([]can.Level, n)
	for i := range out {
		out[i] = can.Recessive
	}
	return out
}

func TestRecorderCapturesBits(t *testing.T) {
	b := bus.New(bus.Rate500k)
	r := NewRecorder()
	b.AttachTap(r)
	b.Run(100)
	if r.Len() != 100 {
		t.Fatalf("recorded %d bits, want 100", r.Len())
	}
	if r.Start() != 0 {
		t.Fatalf("start = %d", r.Start())
	}
}

func TestDecodeSingleFrame(t *testing.T) {
	f := can.Frame{ID: 0x123, Data: []byte{1, 2, 3}}
	stream := append(idle(12), can.WireBits(&f, can.Dominant)...)
	stream = append(stream, idle(20)...)

	events := Decode(stream, 0)
	if len(events) != 1 {
		t.Fatalf("decoded %d events, want 1", len(events))
	}
	e := events[0]
	if e.Kind != FrameEvent || !e.Frame.Equal(&f) || !e.IDComplete || e.ID != 0x123 {
		t.Fatalf("event = %+v", e)
	}
	if e.Start != 12 {
		t.Errorf("frame start = %d, want 12", e.Start)
	}
	if e.Bits() != int64(can.WireLen(&f)) {
		t.Errorf("frame span = %d bits, want %d", e.Bits(), can.WireLen(&f))
	}
}

func TestDecodeMultipleFrames(t *testing.T) {
	f1 := can.Frame{ID: 0x100, Data: []byte{1}}
	f2 := can.Frame{ID: 0x200, Data: []byte{2}}
	stream := append(idle(12), can.WireBits(&f1, can.Dominant)...)
	stream = append(stream, idle(11)...)
	stream = append(stream, can.WireBits(&f2, can.Dominant)...)
	stream = append(stream, idle(11)...)

	events := Decode(stream, 0)
	if len(events) != 2 {
		t.Fatalf("decoded %d events, want 2", len(events))
	}
	if events[0].Frame.ID != 0x100 || events[1].Frame.ID != 0x200 {
		t.Errorf("wrong frames: %v %v", events[0].Frame, events[1].Frame)
	}
}

func TestDecodeErrorEpisode(t *testing.T) {
	// Hand-build a destroyed attempt: SOF + 11-bit ID 0x173 + RTR, then the
	// bus pulled dominant for 7 bits and an error flag — i.e. >6 dominant
	// bits — then recessive recovery.
	attempt := []can.Level{can.Dominant} // SOF
	id := can.ID(0x173)
	for i := 0; i < can.IDBits; i++ {
		attempt = append(attempt, id.Bit(i))
	}
	attempt = append(attempt, can.Dominant) // RTR
	for i := 0; i < 9; i++ {                // pull + error flag
		attempt = append(attempt, can.Dominant)
	}
	stream := append(idle(12), attempt...)
	stream = append(stream, idle(30)...)

	events := Decode(stream, 0)
	if len(events) != 1 {
		t.Fatalf("decoded %d events, want 1", len(events))
	}
	e := events[0]
	if e.Kind != ErrorEvent {
		t.Fatalf("kind = %v, want error", e.Kind)
	}
	if !e.IDComplete || e.ID != 0x173 {
		t.Errorf("recovered ID %v (complete=%v), want 0x173", e.ID, e.IDComplete)
	}
	if e.Bits() != int64(len(attempt)) {
		t.Errorf("span = %d, want %d", e.Bits(), len(attempt))
	}
}

func TestDecodeIgnoresStrayDominants(t *testing.T) {
	// A dominant bit without 11 preceding recessive bits must not create an
	// event (it belongs to an episode already consumed or to noise).
	f := can.Frame{ID: 0x100}
	stream := append(idle(12), can.WireBits(&f, can.Dominant)...)
	stream = append(stream, idle(2)...) // frame tail (8R) + 2 < 11: not idle yet
	stream = append(stream, can.Dominant, can.Dominant)
	stream = append(stream, idle(30)...)
	events := Decode(stream, 0)
	if len(events) != 1 {
		t.Fatalf("decoded %d events, want only the initial frame", len(events))
	}
}

func TestLoadComputation(t *testing.T) {
	f := can.Frame{ID: 0x100, Data: make([]byte, 8)}
	stream := append(idle(12), can.WireBits(&f, can.Dominant)...)
	stream = append(stream, idle(50)...)
	events := Decode(stream, 0)
	load := Load(events, int64(len(stream)))
	wantBusy := float64(can.WireLen(&f))
	want := wantBusy / float64(len(stream))
	if load < want-0.001 || load > want+0.001 {
		t.Errorf("load = %f, want %f", load, want)
	}
	if Load(events, 0) != 0 {
		t.Error("zero-length recording must have zero load")
	}
}

func TestWindowedLoadSpike(t *testing.T) {
	// idle window, then a dense frame window: the loads must differ sharply.
	f := can.Frame{ID: 0x001, Data: make([]byte, 8)}
	stream := append(idle(200), can.WireBits(&f, can.Dominant)...)
	stream = append(stream, idle(100)...)
	events := Decode(stream, 0)
	loads := WindowedLoad(stream, events, 0, 100)
	if len(loads) < 3 {
		t.Fatalf("windows = %d", len(loads))
	}
	if loads[0] != 0 {
		t.Errorf("idle window load = %f, want 0", loads[0])
	}
	if loads[2] < 0.5 {
		t.Errorf("frame window load = %f, want ≥0.5", loads[2])
	}
	if WindowedLoad(stream, events, 0, 0) != nil {
		t.Error("zero window must return nil")
	}
}

// TestEndToEndAttackTrace decodes a full MichiCAN counterattack episode from
// a live simulation: 32 destroyed attempts of the attacker's ID, no complete
// attacker frames.
func TestEndToEndAttackTrace(t *testing.T) {
	b := bus.New(bus.Rate50k)
	r := NewRecorder()
	b.AttachTap(r)

	v, err := fsm.NewIVN([]can.ID{0x173})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := fsm.NewDetectionSet(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	def, err := core.New(core.Config{Name: "m", FSM: fsm.Build(ds)})
	if err != nil {
		t.Fatal(err)
	}
	defCtl := controller.New(controller.Config{Name: "defender", AutoRecover: true})
	b.Attach(core.NewECU(defCtl, def))
	att := controller.New(controller.Config{Name: "attacker", AutoRecover: true})
	b.Attach(att)
	if err := att.Enqueue(can.Frame{ID: 0x064, Data: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	if !b.RunUntil(func() bool { return att.State() == controller.BusOff }, 3000) {
		t.Fatal("attacker not bused off")
	}
	b.Run(30) // flush trailing recovery bits into the trace

	events := Decode(r.Bits(), r.Start())
	attempts := AttemptsOf(events, 0x064)
	if len(attempts) != 32 {
		t.Fatalf("decoded %d destroyed attempts, want 32", len(attempts))
	}
	for _, e := range events {
		if e.Kind == FrameEvent && e.Frame.ID == 0x064 {
			t.Fatal("attacker frame completed despite the defense")
		}
	}
	// The bus-off time per the paper: first bit of the malicious message to
	// the end of the final error episode.
	busOff := attempts[len(attempts)-1].End - attempts[0].Start + 1
	if busOff < 1000 || busOff > 1400 {
		t.Errorf("bus-off span = %d bits, want ≈1230", busOff)
	}
	t.Logf("trace-measured bus-off time: %d bits", busOff)
}

// TestDecodeAllocations bounds what decoding a recorded attacked trace
// costs: one allocation per decoded data frame (its Data) plus the event
// slice's O(log n) growth. Destroyed attempts, remote and DLC-0 frames and
// the destuffing itself allocate nothing.
func TestDecodeAllocations(t *testing.T) {
	b := bus.New(bus.Rate500k)
	r := NewRecorder()
	b.AttachTap(r)
	v, err := fsm.NewIVN([]can.ID{0x173})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := fsm.NewDetectionSet(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	def, err := core.New(core.Config{Name: "m", FSM: fsm.Build(ds)})
	if err != nil {
		t.Fatal(err)
	}
	defCtl := controller.New(controller.Config{Name: "defender", AutoRecover: true})
	b.Attach(core.NewECU(defCtl, def))
	benign := controller.New(controller.Config{Name: "benign", AutoRecover: true})
	b.Attach(benign)
	att := controller.New(controller.Config{Name: "attacker", AutoRecover: true})
	b.Attach(att)
	for i := 0; i < 40; i++ {
		f := can.Frame{ID: can.ID(0x200 + i), Data: make([]byte, i%9)}
		if i%10 == 3 {
			f = can.Frame{ID: can.ID(0x200 + i), Remote: true, RequestLen: 4}
		}
		if err := benign.Enqueue(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := defCtl.Enqueue(can.Frame{ID: 0x173, Data: []byte{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := att.Enqueue(can.Frame{ID: 0x064, Data: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	if !b.RunUntil(func() bool { return att.State() == controller.BusOff && benign.PendingTx() == 0 }, 20_000) {
		t.Fatal("attacker not bused off or benign frames not sent")
	}
	b.Run(30)

	bits, start := r.Bits(), r.Start()
	events := Decode(bits, start)
	dataFrames := 0
	for _, e := range events {
		if e.Kind == FrameEvent && len(e.Frame.Data) > 0 {
			dataFrames++
		}
	}
	if len(AttemptsOf(events, 0x064)) != 32 || dataFrames < 30 {
		t.Fatalf("decoded %d events, %d destroyed attempts, %d data frames; want 32 attempts and ≥ 30 data frames",
			len(events), len(AttemptsOf(events, 0x064)), dataFrames)
	}
	limit := dataFrames + 2*mathbits.Len(uint(len(events)))
	got := testing.AllocsPerRun(10, func() { Decode(bits, start) })
	if got > float64(limit) {
		t.Errorf("Decode of %d events (%d data frames) makes %v allocations, want at most %d", len(events), dataFrames, got, limit)
	}
	t.Logf("Decode of %d events (%d data frames): %v allocations", len(events), dataFrames, got)
}
