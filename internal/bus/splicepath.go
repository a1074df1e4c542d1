package bus

import (
	"sync/atomic"

	"michican/internal/can"
	"michican/internal/telemetry"
)

// SpliceWindow is a transmitter's offer to the compiled-splice fast path: one
// whole frame window (SOF through the last EOF bit) whose wire levels are
// fully determined ahead of time, provided the bus stays quiescent around it.
//
// Bits is the serialized window with the ACK slot recessive (the transmitter
// cannot know who acks); the bus substitutes a dominant ACK when at least one
// error-active receiver confirms it will ack. RxView is the frame exactly as
// a conformant receiver's decoder would report it — receivers deliver it to
// their applications without re-decoding the bit stream. Memo, when set, is
// the window's cross-offer cache (see SpliceMemo); offers without one still
// splice, they just rebuild the resolved span and per-node summaries each
// time.
//
// Resolved, when non-nil, is the pre-resolved span (dominant ACK, recessive
// intermission tail) shared by a fleet-wide plan cache; the bus adopts it
// into the memo instead of rebuilding it, so N vehicles stamped from the
// same matrix share one immutable copy. It must be exactly the window plus
// intermission and is never mutated.
type SpliceWindow struct {
	Bits     []can.Level
	AckIdx   int
	RxView   can.Frame
	Memo     *SpliceMemo
	Resolved []can.Level
}

// SpliceMemo is the per-window cache an offerer keeps for one frame content
// across offers. Periodic traffic re-offers the same few thousand windows
// (messages × their rolling-counter rotation), so everything derivable from
// the window alone is computed once and then reached by direct pointer: the
// ACK-substituted resolved span with its trailing idle run (the bus's
// half), and one opaque slot per attached node for whatever that node wants
// to remember about this window (the defense stores its compiled
// Algorithm-1 summary there). The offerer hands the same memo back with
// every offer of the window (a controller keeps one per compiled plan), so
// the memo is never looked up by address here. The owner/gen stamp resets
// the slots when the memo meets a different bus or a detach renumbers the
// nodes.
type SpliceMemo struct {
	owner    *Bus
	gen      uint64
	resolved []can.Level
	idleRun  int
	slots    []any
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
// state len(resolved) per-bit Observe calls with the resolved levels would
// have produced.
//
// slot points at this node's private entry in the window's memo: whatever the
// node stores there it gets back verbatim on every later offer of the same
// window, letting Query compile once and Apply (and every repeat of the
// window) reuse the result. The bus clears slots when node numbering or bus
// identity changes; nodes must tolerate a foreign value only in so far as
// type-asserting their own.
//
// SpliceOffer returns nil to decline. A non-nil window is owned by the
// offerer and is valid only until the offerer's next SpliceOffer,
// SpliceCommit or Observe call: the offerer may build it once and reuse it,
// and the bus reads it within one splice attempt and never keeps it.
type Splicing interface {
	SpliceOffer(now BitTime) *SpliceWindow
	SpliceQuery(now BitTime, resolved []can.Level, ackIdx int, slot *any) (ok, acks bool)
	SpliceApply(now BitTime, resolved []can.Level, ackIdx int, rx can.Frame, slot *any)
	SpliceCommit(now BitTime, resolved []can.Level, slot *any)
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

// resolveMemo brings the window's memo up to date for this bus: reset on an
// owner or topology change, build the resolved span (dominant ACK, recessive
// intermission tail) on first sight, and size the per-node slot array.
func (b *Bus) resolveMemo(memo *SpliceMemo, win *SpliceWindow, n int) {
	if memo.owner != b || memo.gen != b.spliceGen {
		memo.owner, memo.gen = b, b.spliceGen
		memo.resolved = nil
		for i := range memo.slots {
			memo.slots[i] = nil
		}
	}
	if len(memo.resolved) != n {
		r := win.Resolved
		if len(r) != n {
			r = make([]can.Level, n)
			copy(r, win.Bits)
			r[win.AckIdx] = can.Dominant
			for i := len(win.Bits); i < n; i++ {
				r[i] = can.Recessive
			}
		}
		memo.resolved = r
		// A full window never ends recessive-only from SOF, so the trailing
		// run (ACK delimiter + EOF + intermission) is the post-splice idle run.
		memo.idleRun = trailingRecessive(r)
	}
	if len(memo.slots) < len(b.nodes) {
		slots := make([]any, len(b.nodes))
		copy(slots, memo.slots)
		memo.slots = slots
	}
}

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
	if tx < 0 || len(win.Bits) == 0 {
		return false
	}
	n := len(win.Bits) + can.IntermissionBits
	if b.now+BitTime(n) > end {
		return false // window must fit wholly; a partial splice has no summary
	}
	memo := win.Memo
	if memo == nil {
		memo = &SpliceMemo{} // transient offer: cache for this window only
	}
	b.resolveMemo(memo, win, n)
	resolved := memo.resolved
	acked := false
	for i := range nodes {
		if i == tx {
			continue
		}
		ok, acks := nodes[i].splice.SpliceQuery(b.now, resolved, win.AckIdx, &memo.slots[i])
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
	ackIdx, rx := win.AckIdx, win.RxView // the offer dies at the commit
	for i := range nodes {
		if i == tx {
			nodes[i].splice.SpliceCommit(b.now, resolved, &memo.slots[i])
		} else {
			nodes[i].splice.SpliceApply(b.now, resolved, ackIdx, rx, &memo.slots[i])
		}
	}
	for i := range taps {
		taps[i].run.BitRun(b.now, resolved)
	}
	b.idleRun = memo.idleRun
	b.tel.Emit(int64(b.now), telemetry.EvFFSpan, int64(n), 3)
	b.last = resolved[n-1]
	b.now += BitTime(n)
	b.ffSpliceBits += int64(n)
	spliceForwardedTotal.Add(int64(n))
	return true
}
