package bus

import (
	"reflect"
	"testing"

	"michican/internal/can"
)

// slotOfferer offers compiled windows from one slot it owns. It rewrites the
// slot on every SpliceOffer and scribbles over it in SpliceCommit, as the
// offer contract allows: a window is valid only until the offerer's next
// SpliceOffer, SpliceCommit or Observe. It lacks Quiescent and RunObserver,
// so once its windows run out every bit is exact-stepped.
type slotOfferer struct {
	driveCap
	windows   [][]can.Level
	sent      int
	slot      SpliceWindow
	committed [][]can.Level
}

func (o *slotOfferer) SpliceOffer(BitTime) *SpliceWindow {
	if o.sent == len(o.windows) {
		o.slot = SpliceWindow{}
		return nil
	}
	w := o.windows[o.sent]
	o.slot = SpliceWindow{Resolved: w, AckIdx: len(w) - 12, RxView: can.Frame{ID: can.ID(o.sent)}, PlanID: -1}
	return &o.slot
}

func (o *slotOfferer) SpliceQuery(BitTime, *SpliceWindow) (ok, acks bool) {
	return false, false
}

func (o *slotOfferer) SpliceApply(BitTime, *SpliceWindow) {}

func (o *slotOfferer) SpliceCommit(_ BitTime, w *SpliceWindow) {
	o.committed = append(o.committed, append([]can.Level(nil), w.Resolved...))
	o.sent++
	o.slot = SpliceWindow{Resolved: []can.Level{can.Dominant}, RxView: can.Frame{ID: 0x7FF}}
}

// spliceReceiver acks every window and records what each splice applied.
type spliceReceiver struct {
	driveCap
	quietCap
	runCap
	contendCap
	applied [][]can.Level
	ids     []can.ID
}

func (r *spliceReceiver) SpliceOffer(BitTime) *SpliceWindow { return nil }

func (r *spliceReceiver) SpliceQuery(BitTime, *SpliceWindow) (ok, acks bool) {
	return true, true
}

func (r *spliceReceiver) SpliceApply(_ BitTime, w *SpliceWindow) {
	r.applied = append(r.applied, append([]can.Level(nil), w.Resolved...))
	r.ids = append(r.ids, w.RxView.ID)
}

func (r *spliceReceiver) SpliceCommit(BitTime, *SpliceWindow) {}

// offerWindow is the k-th test window as a splice resolves it: SOF, a
// k-dependent body, a dominant ACK slot 12 bits before the end, and a
// recessive tail (ACK delimiter, EOF and intermission).
func offerWindow(k int) []can.Level {
	w := make([]can.Level, 30+k+can.IntermissionBits)
	for i := range w {
		w[i] = can.Recessive
		if i < len(w)-13 && (i+k)%3 == 0 {
			w[i] = can.Dominant
		}
	}
	w[len(w)-12] = can.Dominant
	return w
}

// TestSpliceCommitsTheWindowOfferedInItsProbe: the offerer rewrites its one
// window slot on every call and scribbles over it when its commit runs —
// before the receivers' — yet every splice commits and applies exactly the
// window offered in that probe. Once the offerer declines with nil, the bus
// exact-steps.
func TestSpliceCommitsTheWindowOfferedInItsProbe(t *testing.T) {
	o := &slotOfferer{}
	var want [][]can.Level
	total := 0
	for k := 0; k < 5; k++ {
		w := offerWindow(k)
		o.windows = append(o.windows, w)
		want = append(want, append([]can.Level(nil), w...))
		total += len(w)
	}
	rx := &spliceReceiver{}
	b := New(Rate500k)
	b.Attach(o) // first, so its commit runs before the receiver's apply
	b.Attach(rx)
	b.AttachTap(&spanRecorder{})
	const tail = 20
	b.Run(int64(total + tail))

	if got := b.SpliceForwardedBits(); got != int64(total) {
		t.Fatalf("splice rung carried %d bits, want every window's %d", got, total)
	}
	if !reflect.DeepEqual(o.committed, want) {
		t.Errorf("offerer committed\n%v\nwant\n%v", o.committed, want)
	}
	if !reflect.DeepEqual(rx.applied, want) {
		t.Errorf("receiver applied\n%v\nwant\n%v", rx.applied, want)
	}
	if !reflect.DeepEqual(rx.ids, []can.ID{0, 1, 2, 3, 4}) {
		t.Errorf("receiver saw frames %v, want the offered 0..4", rx.ids)
	}
	if ff := b.FastForwardedBits(); ff != int64(total) || b.Now() != BitTime(total+tail) {
		t.Errorf("after the nil offers: %d fast-forwarded bits and now %d; want %d and %d (the tail exact-stepped)",
			ff, b.Now(), total, total+tail)
	}
}

// errorFrameDriver drives an error frame over and over — a six-bit active
// flag, the eight-bit delimiter and the three-bit intermission — and
// declines every fast-forward probe, so the walker runs all three and
// exact-steps each bit.
type errorFrameDriver struct {
	runCap
}

const errorFrameBits = 6 + 8 + 3

func (errorFrameDriver) Drive(t BitTime) can.Level {
	if t%errorFrameBits < 6 {
		return can.Dominant
	}
	return can.Recessive
}

func (errorFrameDriver) Observe(BitTime, can.Level)                         {}
func (errorFrameDriver) QuiescentUntil(now BitTime) BitTime                 { return now }
func (errorFrameDriver) SkipIdle(_, _ BitTime)                              {}
func (errorFrameDriver) ContendBits(now BitTime) ([]can.Level, BitTime)     { return nil, now }
func (errorFrameDriver) ContendFrameBit() int                               { return -1 }
func (errorFrameDriver) SpliceOffer(BitTime) *SpliceWindow                  { return nil }
func (errorFrameDriver) SpliceApply(BitTime, *SpliceWindow)                 {}
func (errorFrameDriver) SpliceCommit(BitTime, *SpliceWindow)                {}
func (errorFrameDriver) SpliceQuery(BitTime, *SpliceWindow) (ok, acks bool) { return true, false }

// TestDecliningProbesAllocateNothing: exact-stepping an error frame with
// every rung open costs the three declining probes and the step, none of
// which allocates.
func TestDecliningProbesAllocateNothing(t *testing.T) {
	b := New(Rate500k)
	b.Attach(errorFrameDriver{})
	b.Attach(&fullNode{})
	b.Attach(&fullNode{})
	b.AttachTap(&struct {
		bitCap
		tapSkipCap
		tapRunCap
	}{})
	b.Run(errorFrameBits)
	if got := testing.AllocsPerRun(100, func() { b.Run(errorFrameBits) }); got != 0 {
		t.Fatalf("exact-stepping an error frame allocates %v times, want 0", got)
	}
	if ff := b.FastForwardedBits(); ff != 0 {
		t.Fatalf("a rung carried %d bits; every probe should decline", ff)
	}
}
