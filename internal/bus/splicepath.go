package bus

import (
	"sync/atomic"

	"michican/internal/can"
	"michican/internal/telemetry"
)

// SpliceWindow is a transmitter's offer to the compiled-splice fast path: one
// whole frame window whose wire levels are fully determined ahead of time,
// provided the bus stays quiescent around it.
//
// Resolved is the window as a splice commits it: SOF through the last EOF
// bit with the ACK slot at AckIdx dominant, then the recessive intermission
// tail (IntermissionBits). The bus commits the dominant ACK only when at
// least one error-active receiver confirms it will ack, and declines the
// window otherwise. Everything after the ACK slot is recessive, so the
// post-splice idle run is len(Resolved)-AckIdx-1. The span is immutable: a
// fleet-wide plan cache shares one copy across every vehicle stamped from
// the same matrix, and nodes may key caches by its identity. RxView is the
// frame exactly as a conformant receiver's decoder would report it —
// receivers deliver it to their applications without re-decoding the bit
// stream.
//
// PlanID is the offerer's dense, stable index for the window's content (0,
// 1, 2, … in order of publication), or -1 when the window has none. A node
// that remembers something per window (the defense's compiled Algorithm-1
// summary) indexes it by PlanID and checks the Resolved identity, since two
// offerers may number their windows independently.
type SpliceWindow struct {
	Resolved []can.Level
	AckIdx   int
	RxView   can.Frame
	PlanID   int32
}

// Splicing is the node capability of the fourth fast-forward tier: splicing a
// compiled frame window into the simulation in O(1) per node.
//
// The tier trades the contended path's mid-span divergence clamp for an
// up-front, all-or-nothing passivity proof: SpliceOffer nominates exactly one
// transmitter with a precompiled window (SOF through the last EOF bit; the
// bus appends the recessive intermission tail, so the resolved span handed to
// Query/Apply/Commit is IntermissionBits longer than the offer), and
// SpliceQuery asks every other node to promise — without mutating state —
// that over the whole resolved span it (a) drives recessive on every bit
// except a dominant ACK it declares via acks, and (b) can advance its meters,
// counters, and telemetry by a precompiled summary whose effect is
// bit-identical to exact stepping.
// Any decline aborts the splice before any state changes, and the window
// falls through to the contend and exact rungs — the divergence clamp is
// the decline itself, so correctness never depends on the cache.
//
// SpliceCommit and SpliceApply then commit the window for real: Commit on the
// offerer (it completes its own transmission), Apply on everyone else (they
// fold the precompiled summary). Both must leave the node in exactly the
// state len(w.Resolved) per-bit Observe calls with the resolved levels would
// have produced.
//
// SpliceOffer returns nil to decline. A non-nil window is owned by the
// offerer and is valid only until the offerer's next SpliceOffer,
// SpliceCommit or Observe call: the offerer may build it once and reuse it.
// The bus hands the offered window to the queries and its own copy to the
// commit and applies; no node keeps either past the call.
type Splicing interface {
	SpliceOffer(now BitTime) *SpliceWindow
	SpliceQuery(now BitTime, w *SpliceWindow) (ok, acks bool)
	SpliceApply(now BitTime, w *SpliceWindow)
	SpliceCommit(now BitTime, w *SpliceWindow)
}

// spliceForwardedTotal is the process-wide counter for the compiled-splice
// path, alongside its idle and contend siblings.
var spliceForwardedTotal atomic.Int64

// SpliceForwardedTotal returns the cumulative process-wide count of bits
// advanced via the compiled-splice fast path.
func SpliceForwardedTotal() int64 { return spliceForwardedTotal.Load() }

// SpliceForwardedBits returns how many bits this bus advanced via the
// compiled-splice fast path.
func (b *Bus) SpliceForwardedBits() int64 { return b.ffSpliceBits }

// trySpliceForward attempts one compiled-window splice, bounded by end. It
// returns false — having done nothing — unless exactly one node offers a
// compiled window that fits wholly within the bound, every other node
// promises whole-window passivity, and at least one of them promises a
// dominant ACK (a window nobody acks raises an ACK error, which only the
// exact/contend machinery handles).
func (b *Bus) trySpliceForward(end BitTime) bool {
	if !b.open(RungSplice) || end <= b.now {
		return false
	}
	tx := -1
	var win *SpliceWindow
	nodes, taps := b.nodes, b.taps
	for i := range nodes {
		w := nodes[i].splice.SpliceOffer(b.now)
		if w == nil {
			continue
		}
		if tx >= 0 {
			return false // two pending transmitters: contention, lower tiers resolve it
		}
		tx, win = i, w
	}
	if tx < 0 || len(win.Resolved) == 0 {
		return false
	}
	n := len(win.Resolved)
	if b.now+BitTime(n) > end {
		return false // window must fit wholly; a partial splice has no summary
	}
	acked := false
	for i := range nodes {
		if i == tx {
			continue
		}
		ok, acks := nodes[i].splice.SpliceQuery(b.now, win)
		if !ok {
			return false
		}
		if acks {
			acked = true
		}
	}
	if !acked {
		return false
	}
	b.spliceWin = *win // the offer dies at the commit
	win = &b.spliceWin
	for i := range nodes {
		if i == tx {
			nodes[i].splice.SpliceCommit(b.now, win)
		} else {
			nodes[i].splice.SpliceApply(b.now, win)
		}
	}
	resolved := win.Resolved
	for i := range taps {
		taps[i].run.BitRun(b.now, resolved)
	}
	b.idleRun = n - win.AckIdx - 1
	b.tel.Emit(int64(b.now), telemetry.EvFFSpan, int64(n), 3)
	b.last = resolved[n-1]
	b.now += BitTime(n)
	b.ffSpliceBits += int64(n)
	spliceForwardedTotal.Add(int64(n))
	return true
}
