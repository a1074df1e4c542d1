package controller

import (
	"math/rand"
	"testing"

	"michican/internal/bus"
	"michican/internal/can"
)

func TestFDFrameDelivery(t *testing.T) {
	b := bus.New(bus.Rate500k)
	var rx recorder
	tx := newTestController("tx", nil)
	b.Attach(tx)
	b.Attach(newTestController("rx", &rx))

	want := can.Frame{ID: 0x155, FD: true, Data: make([]byte, 64)}
	for i := range want.Data {
		want.Data[i] = byte(i)
	}
	if err := tx.Enqueue(want); err != nil {
		t.Fatal(err)
	}
	b.Run(800)
	if len(rx.frames) != 1 {
		t.Fatalf("received %d frames", len(rx.frames))
	}
	if !rx.frames[0].Equal(&want) {
		t.Errorf("received %s FD=%v len=%d", rx.frames[0].String(), rx.frames[0].FD, len(rx.frames[0].Data))
	}
	if tx.TEC() != 0 || tx.Stats().TxSuccess != 1 {
		t.Errorf("TEC=%d success=%d", tx.TEC(), tx.Stats().TxSuccess)
	}
}

func TestFDMixedWithClassicalTraffic(t *testing.T) {
	b := bus.New(bus.Rate500k)
	var rx recorder
	tx := newTestController("tx", nil)
	b.Attach(tx)
	b.Attach(newTestController("rx", &rx))

	rng := rand.New(rand.NewSource(4))
	frames := []can.Frame{
		{ID: 0x100, Data: []byte{1}},
		{ID: 0x101, FD: true, Data: make([]byte, 12)},
		{ID: 0x18DAF110, Extended: true, Data: []byte{2}},
		{ID: 0x1ABCDE00, Extended: true, FD: true, Data: make([]byte, 32)},
		{ID: 0x102, Remote: true, RequestLen: 4},
		{ID: 0x103, FD: true, ESIPassive: false, Data: make([]byte, 48)},
	}
	for i := range frames {
		if len(frames[i].Data) > 0 {
			rng.Read(frames[i].Data)
		}
		if err := tx.Enqueue(frames[i]); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	b.Run(4000)
	if len(rx.frames) != len(frames) {
		t.Fatalf("received %d/%d frames", len(rx.frames), len(frames))
	}
	for i := range frames {
		if !rx.frames[i].Equal(&frames[i]) {
			t.Errorf("frame %d: got %s (FD=%v ext=%v remote=%v)", i,
				rx.frames[i].String(), rx.frames[i].FD, rx.frames[i].Extended, rx.frames[i].Remote)
		}
	}
	if tx.TEC() != 0 {
		t.Errorf("TEC = %d after mixed traffic", tx.TEC())
	}
}

func TestFDArbitrationAgainstClassical(t *testing.T) {
	// FD and classical frames arbitrate identically through the ID field;
	// the lower ID wins regardless of format.
	b := bus.New(bus.Rate500k)
	var rx recorder
	fdTx := newTestController("fd", nil)
	classicTx := newTestController("classic", nil)
	b.Attach(fdTx)
	b.Attach(classicTx)
	b.Attach(newTestController("rx", &rx))

	if err := fdTx.Enqueue(can.Frame{ID: 0x100, FD: true, Data: make([]byte, 16)}); err != nil {
		t.Fatal(err)
	}
	if err := classicTx.Enqueue(can.Frame{ID: 0x200, Data: []byte{9}}); err != nil {
		t.Fatal(err)
	}
	b.Run(1200)
	if len(rx.frames) != 2 {
		t.Fatalf("received %d frames", len(rx.frames))
	}
	if !rx.frames[0].FD || rx.frames[0].ID != 0x100 {
		t.Errorf("FD frame with the lower ID should win: first = %s", rx.frames[0].String())
	}
	if classicTx.TEC() != 0 || fdTx.TEC() != 0 {
		t.Error("format mixing must not cause errors")
	}
}

func TestFDJammedFrameRampsTEC(t *testing.T) {
	// The MichiCAN primitive works against FD transmitters unchanged: the
	// post-arbitration pull destroys the frame, TEC ramps to bus-off in 32.
	b := bus.New(bus.Rate500k)
	att := newTestController("att", nil)
	witness := newTestController("w", nil)
	jam := newJammer(13, 20)
	b.Attach(att)
	b.Attach(witness)
	b.Attach(jam)

	if err := att.Enqueue(can.Frame{ID: 0x173, FD: true, Data: make([]byte, 64)}); err != nil {
		t.Fatal(err)
	}
	spin(t, b, func() bool { return att.State() == BusOff }, 8000, "FD attacker bus-off")
	if att.Stats().TxAttempts != 32 {
		t.Errorf("attempts = %d, want 32", att.Stats().TxAttempts)
	}
}

// TestFirstReceptionAllocatesNothing checks that a controller's first SOF,
// which resets the whole receive pipeline, allocates nothing: the two FD CRC
// registers live inside the controller from construction on.
func TestFirstReceptionAllocatesNothing(t *testing.T) {
	const runs = 100
	ctls := make([]*Controller, runs+1) // AllocsPerRun makes one extra warm-up call
	for i := range ctls {
		ctls[i] = New(Config{Name: "rx"})
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		ctls[next].Observe(0, can.Dominant)
		next++
	})
	if got != 0 {
		t.Errorf("a fresh controller's first SOF makes %v allocations, want 0", got)
	}
	if ctls[0].phase != phaseFrame {
		t.Fatalf("the SOF left the controller in phase %v, not on a frame", ctls[0].phase)
	}
}
