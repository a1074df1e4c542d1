package bus

import (
	"testing"

	"michican/internal/can"
	"michican/internal/telemetry"
)

// countingHyperNode is a recessive node that speaks the splice and hyper
// capabilities (so the hyper tier is eligible) and counts every hyper call.
type countingHyperNode struct {
	constNode
	fp, snap, match, seal, apply int
}

func (n *countingHyperNode) SpliceOffer(BitTime) (SpliceWindow, bool) { return SpliceWindow{}, false }
func (n *countingHyperNode) SpliceQuery(BitTime, []can.Level, int, *any) (bool, bool) {
	return false, false
}
func (n *countingHyperNode) SpliceApply(BitTime, []can.Level, int, can.Frame, *any) {}
func (n *countingHyperNode) SpliceCommit(BitTime, []can.Level, *any)                {}

func (n *countingHyperNode) HyperFP(BitTime, *telemetry.Hub) (uint64, bool) {
	n.fp++
	return 42, true
}
func (n *countingHyperNode) HyperSnap(BitTime) any { n.snap++; return nil }
func (n *countingHyperNode) HyperMatch(BitTime, any) bool {
	n.match++
	return true
}
func (n *countingHyperNode) HyperSeal(BitTime, any, int) (any, bool) {
	n.seal++
	return nil, true
}
func (n *countingHyperNode) HyperApply(BitTime, any) { n.apply++ }

// TestHyperAnchorDeclinesOnRefusingHub pins the anchor early-out: on a bus
// whose hub has not opted in to capture, an anchor must decline before any
// node is fingerprinted — no HyperFP, no recording, and no memo served even
// when a valid one is cached — while on a hub that allows capture the same
// anchor serves that memo, or fingerprints and starts a recording when
// there is none.
func TestHyperAnchorDeclinesOnRefusingHub(t *testing.T) {
	anchor := func(allow, cached bool) (*Bus, *countingHyperNode) {
		b := New(Rate500k)
		n := &countingHyperNode{constNode: constNode{drive: can.Recessive}}
		b.Attach(n)
		hub := telemetry.NewHub()
		hub.AllowCapture(allow)
		b.SetTelemetry(hub, "bus")
		b.hyperArmed = true
		if cached {
			// The memo the anchor's fingerprint looks up: the bus wire state
			// plus the node's HyperFP of 42.
			fp := fnvMix(fnvMix(fnvMix(14695981039346656037, uint64(b.last)), uint64(b.idleRun)), 42)
			b.hyperMemos = map[uint64]*HyperMemo{fp: {
				gen: b.hyperGen, sgen: b.spliceGen, fp: fp, n: 100, windows: hyperMinWindows,
				entryLast: b.last, entryIdleRun: b.idleRun, exitLast: can.Recessive,
				entries: []any{nil}, deltas: []any{nil},
			}}
		}
		return b, n
	}

	b, n := anchor(false, true)
	for i := 0; i < 10; i++ {
		if b.tryHyperForward(1 << 20) {
			t.Fatal("refusing hub: anchor applied a memo")
		}
	}
	if n.fp+n.snap+n.match+n.seal+n.apply != 0 {
		t.Fatalf("refusing hub: hyper calls fp=%d snap=%d match=%d seal=%d apply=%d, want none",
			n.fp, n.snap, n.match, n.seal, n.apply)
	}
	if b.hyperRec != nil || b.now != 0 {
		t.Fatalf("refusing hub: recording %v, clock %d; want no recording and no advance", b.hyperRec != nil, b.now)
	}

	b, n = anchor(true, true)
	if !b.tryHyperForward(1<<20) || n.match != 1 || n.apply != 1 || b.now != 100 {
		t.Fatalf("capturing hub: memo not served (match=%d apply=%d clock=%d)", n.match, n.apply, b.now)
	}

	b, n = anchor(true, false)
	if b.tryHyperForward(1 << 20) {
		t.Fatal("capturing hub: empty memo table applied a memo")
	}
	if n.fp != 1 || n.snap != 1 || b.hyperRec == nil {
		t.Fatalf("capturing hub: fp=%d snap=%d recording=%v; want one fingerprint and a recording", n.fp, n.snap, b.hyperRec != nil)
	}
	b.hyperAbort()
}
