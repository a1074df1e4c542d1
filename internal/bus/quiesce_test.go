package bus

import (
	"slices"
	"testing"
	"time"

	"michican/internal/can"
)

// quietNode is a Quiescent test node: idle until wakeAt, at which bit it
// drives one dominant bit, then idle forever. It counts exact observations
// and skipped bits so tests can see which path the bus took.
type quietNode struct {
	wakeAt   BitTime
	fired    bool
	observed int64
	skipped  int64
	times    []BitTime
}

func (n *quietNode) Drive(t BitTime) can.Level {
	if !n.fired && t == n.wakeAt {
		n.fired = true
		return can.Dominant
	}
	return can.Recessive
}

func (n *quietNode) Observe(t BitTime, _ can.Level) {
	n.observed++
	n.times = append(n.times, t)
}

func (n *quietNode) QuiescentUntil(now BitTime) BitTime {
	if n.fired {
		return QuiescentForever
	}
	if n.wakeAt <= now {
		return now
	}
	return n.wakeAt
}

func (n *quietNode) SkipIdle(from, to BitTime) { n.skipped += int64(to - from) }

// ffTap is a fast-forward-capable tap counting both paths.
type ffTap struct {
	bits    int64
	skipped int64
}

func (t *ffTap) Bit(_ BitTime, _ can.Level) { t.bits++ }
func (t *ffTap) SkipIdle(from, to BitTime)  { t.skipped += int64(to - from) }

func TestFastForwardJumpsIdle(t *testing.T) {
	b := New(Rate500k)
	n := &quietNode{wakeAt: 1000}
	tap := &ffTap{}
	b.Attach(n)
	b.AttachTap(tap)

	b.Run(2000)
	if b.Now() != 2000 {
		t.Fatalf("Now = %d", b.Now())
	}
	// Bits [0,1000) are one quiescent jump; bit 1000 (the dominant wake
	// bit) and its aftermath are exact; the remainder is one more jump.
	if n.skipped == 0 {
		t.Fatal("no bits were skipped")
	}
	if b.FastForwardedBits() != n.skipped {
		t.Errorf("FastForwardedBits = %d, node saw %d", b.FastForwardedBits(), n.skipped)
	}
	if n.skipped+n.observed != 2000 {
		t.Errorf("skipped %d + observed %d != 2000", n.skipped, n.observed)
	}
	if tap.skipped+tap.bits != 2000 {
		t.Errorf("tap skipped %d + bits %d != 2000", tap.skipped, tap.bits)
	}
	// The wake bit itself must have been exact-stepped at the right time.
	found := false
	for _, tm := range n.times {
		if tm == 1000 {
			found = true
		}
	}
	if !found {
		t.Error("wake bit 1000 was not exact-stepped")
	}
	if !n.fired {
		t.Error("node never fired")
	}
	if b.IdleRun() < 999 {
		t.Errorf("IdleRun = %d after a 999-bit idle tail", b.IdleRun())
	}
}

func TestNonQuiescentNodePinsExactStepping(t *testing.T) {
	b := New(Rate500k)
	q := &quietNode{wakeAt: -1, fired: true} // quiescent forever
	pin := &constNode{drive: can.Recessive}  // no Quiescent capability
	b.Attach(q)
	b.Attach(pin)
	b.Run(500)
	if b.FastForwardedBits() != 0 {
		t.Fatalf("fast-forwarded %d bits with a pinning node attached", b.FastForwardedBits())
	}
	if q.observed != 500 {
		t.Errorf("observed %d bits, want 500 exact steps", q.observed)
	}
}

func TestNonQuiescentTapPinsExactStepping(t *testing.T) {
	b := New(Rate500k)
	q := &quietNode{wakeAt: -1, fired: true}
	tap := &levelTap{} // no TapFastForwarder capability
	b.Attach(q)
	b.AttachTap(tap)
	b.Run(500)
	if b.FastForwardedBits() != 0 {
		t.Fatalf("fast-forwarded %d bits with a pinning tap attached", b.FastForwardedBits())
	}
	if len(tap.levels) != 500 {
		t.Errorf("tap saw %d bits, want 500", len(tap.levels))
	}
}

func TestSetFastForwardOff(t *testing.T) {
	b := New(Rate500k)
	q := &quietNode{wakeAt: -1, fired: true}
	b.Attach(q)
	b.SetLadder(RungExact)
	b.Run(500)
	if b.FastForwardedBits() != 0 {
		t.Fatalf("fast-forwarded %d bits while disabled", b.FastForwardedBits())
	}
	b.SetLadder(RungSplice)
	b.Run(500)
	if b.FastForwardedBits() != 500 {
		t.Fatalf("fast-forwarded %d bits after re-enable, want 500", b.FastForwardedBits())
	}
}

// TestDetachUnpinsBus attaches a node lacking one capability at the first,
// middle or last position among fully capable nodes (and a tap lacking one
// capability beside them): it must pin exactly the rungs that need the
// capability, and detaching the node must unpin them again.
func TestDetachUnpinsBus(t *testing.T) {
	all := []Rung{RungIdle, RungContend, RungSplice}
	cases := []struct {
		name string
		node Node
		tap  Tap
		pins []Rung
	}{
		{name: "no Quiescent", node: &noQuietNode{}, pins: []Rung{RungIdle}},
		{name: "no RunObserver", node: &noRunNode{}, pins: []Rung{RungContend}},
		{name: "no ContendCommitter", node: &noContendNode{}},
		{name: "no Splicing", node: &noSpliceNode{}, pins: []Rung{RungSplice}},
		{name: "no capability", node: &constNode{drive: can.Recessive}, pins: all},
		{name: "tap without SkipIdle", tap: &noSkipTap{}, pins: []Rung{RungIdle}},
		{name: "tap without BitRun", tap: &noRunTap{}, pins: []Rung{RungContend, RungSplice}},
		{name: "tap without either", tap: &levelTap{}, pins: all},
	}
	checkPins := func(t *testing.T, b *Bus, when string, pins []Rung) {
		t.Helper()
		for _, r := range all {
			if pinned := !b.open(r); pinned != slices.Contains(pins, r) {
				t.Errorf("%s: rung %d pinned = %v, want %v", when, r, pinned, !pinned)
			}
		}
	}
	for _, tc := range cases {
		positions := []string{"first", "middle", "last"}
		if tc.tap != nil {
			positions = []string{"beside three nodes"} // taps cannot be detached
		}
		for pos, where := range positions {
			t.Run(tc.name+"/"+where, func(t *testing.T) {
				b := New(Rate500k)
				for i := 0; i < 3; i++ {
					if i == pos && tc.node != nil {
						b.Attach(tc.node)
					} else {
						b.Attach(&fullNode{})
					}
				}
				if tc.tap != nil {
					b.AttachTap(tc.tap)
				}
				checkPins(t, b, "attached", tc.pins)
				b.Run(10)
				if jumped := b.FastForwardedBits() > 0; jumped == slices.Contains(tc.pins, RungIdle) {
					t.Errorf("attached: idle jump taken = %v with pins %v", jumped, tc.pins)
				}
				if tc.node == nil {
					return
				}
				if !b.Detach(tc.node) {
					t.Fatal("detach failed")
				}
				checkPins(t, b, "detached", nil)
				before := b.FastForwardedBits()
				b.Run(10)
				if b.FastForwardedBits() == before {
					t.Error("bus still pinned after detaching the node")
				}
			})
		}
	}
}

func TestDetachClearsBackingArray(t *testing.T) {
	b := New(Rate500k)
	n1 := &constNode{drive: can.Recessive}
	n2 := &constNode{drive: can.Recessive}
	b.Attach(n1)
	b.Attach(n2)
	if !b.Detach(n1) {
		t.Fatal("detach failed")
	}
	// The element past the new length must be nil so the detached node is
	// not pinned in memory by the backing array.
	tail := b.nodes[:cap(b.nodes)][len(b.nodes)]
	if tail != (nodeRec{}) {
		t.Errorf("stale tail element %T still referenced after Detach", tail.n)
	}
	if len(b.nodes) != 1 || b.nodes[0].n != Node(n2) {
		t.Error("surviving node list wrong")
	}
}

// TestGroupMixedRateLockstep drives a 500k and a 125k bus in one group and
// checks that the heap-based scheduler interleaves them exactly as virtual
// time dictates: four 500k bits per 125k bit, with ties going to the
// earlier-attached bus.
func TestGroupMixedRateLockstep(t *testing.T) {
	fast := New(Rate500k)
	slow := New(Rate125k)
	fastN := &constNode{drive: can.Recessive}
	slowN := &constNode{drive: can.Recessive}
	fast.Attach(fastN)
	slow.Attach(slowN)
	g := NewGroup(fast, slow)

	g.RunFor(time.Millisecond)
	if fast.Now() != 500 {
		t.Errorf("500k bus advanced %d bits, want 500", fast.Now())
	}
	if slow.Now() != 125 {
		t.Errorf("125k bus advanced %d bits, want 125", slow.Now())
	}

	// Reproduce the reference interleaving with a naive rescan and compare
	// step-by-step against a second, heap-scheduled group.
	type sim struct{ fastBits, slowBits int64 }
	var ref []sim
	refFast, refSlow := int64(0), int64(0)
	for refFast < 40 || refSlow < 10 {
		// Naive reference: pick the bus with the least elapsed time,
		// first-attached wins ties (elapsed in picoseconds at these rates).
		ef := refFast * int64(Rate500k.BitDuration())
		es := refSlow * int64(Rate125k.BitDuration())
		if ef <= es {
			refFast++
		} else {
			refSlow++
		}
		ref = append(ref, sim{refFast, refSlow})
	}

	f2, s2 := New(Rate500k), New(Rate125k)
	f2.Attach(&constNode{drive: can.Recessive})
	s2.Attach(&constNode{drive: can.Recessive})
	g2 := NewGroup(f2, s2)
	for i, want := range ref {
		g2.Step()
		if int64(f2.Now()) != want.fastBits || int64(s2.Now()) != want.slowBits {
			t.Fatalf("step %d: heap order (%d,%d), reference (%d,%d)",
				i, f2.Now(), s2.Now(), want.fastBits, want.slowBits)
		}
	}
}

func TestGroupRunForEmpty(t *testing.T) {
	g := NewGroup()
	g.RunFor(time.Millisecond) // must not hang or panic
	g.Step()
}
