package bus

import (
	"sync/atomic"

	"michican/internal/can"
	"michican/internal/telemetry"
)

// The hyperperiod super-splice is the fifth fast-forward tier: where the
// compiled-splice path (splicepath.go) resolves one frame window per bus
// entry, this tier chains consecutive accepted splice windows and the idle
// gaps between them into one compiled super-window — typically a whole
// schedule hyperperiod of the restbus traffic — and replays the chain in
// O(1) per node.
//
// The mechanism is record-then-replay with an exact entry match:
//
//   - An anchor is any ladder iteration immediately after a committed splice
//     (or a previous hyper apply). At an anchor the bus fingerprints the
//     joint quiescent state — its own wire state plus every node's
//     HyperFP — and looks the fingerprint up in its memo table.
//   - On a miss it snapshots every node (HyperSnap) and keeps stepping the
//     normal ladder, logging each committed op: idle jumps and spliced
//     windows extend the recording; any exact step, frame-path span, or
//     contended span aborts it (the chain would no longer be a pure
//     splice/idle evolution). When the chain reaches the target length the
//     bus asks every node to seal a delta (HyperSeal) — the exact difference
//     between its entry snapshot and its live state — and stores the memo.
//   - On a hit the bus re-verifies the entry exactly (HyperMatch per node
//     plus its own wire state), then applies every node's sealed delta
//     (HyperApply), replays the taps per segment, replays the chain's
//     telemetry tape time-shifted, and advances the clock by the whole chain
//     in one step.
//
// Correctness never depends on the cache: a memo is only applied after a
// bit-exact entry match, and the simulation is deterministic with external
// mutation confined to Run-family boundaries, so the recorded evolution is
// the evolution. Anything that cannot be proven — an attacker node that does
// not implement Hypering, a node whose callbacks the delta cannot fold, a
// diverging offer — either pins the tier off or clamps the chain, and the
// window falls down the existing ladder exactly as before (the same
// all-or-nothing argument as the splice tier).
//
// Invalidation: every memo is stamped with the bus's hyper generation, which
// bumps on BOTH Attach and Detach (per-node entries are indexed by
// attachment order, and unlike splice memos an attach extends the node set a
// recorded chain never consulted), and with the splice generation whose
// compiled windows the chain references.

// Hypering is the node capability of the hyperperiod super-splice tier.
// A node that implements it can have a whole chain of splice windows and
// idle gaps folded into it as one precomputed delta.
//
// HyperFP fingerprints the node's chain-relevant state at an anchor and
// reports whether the node can participate in a chain that begins now; hub
// is the hub whose tape the bus would record, and a node whose telemetry
// flows elsewhere must decline (its emissions could not be replayed).
// HyperSnap captures an exact entry snapshot (absolute times stored
// relative to now). HyperMatch reports whether the node's live state is
// bit-equivalent to a snapshot taken at an earlier anchor — "equivalent"
// meaning equal in every field the chain's evolution can read, the same
// standard the splice tier's summaries already meet. HyperSeal, called at
// the chain's exit with the entry snapshot and the number of spliced
// windows, compiles the delta (additive for counters, entry-relative for
// times, absolute for overwritten fields); it reports false when the
// evolution is outside the delta's vocabulary, abandoning the memo.
// HyperApply folds a sealed delta into the node; now is the chain's exit
// time. Applying a delta whose snapshot matched must leave the node in
// exactly the state per-bit stepping over the chain would have produced.
type Hypering interface {
	HyperFP(now BitTime, hub *telemetry.Hub) (uint64, bool)
	HyperSnap(now BitTime) any
	HyperMatch(now BitTime, snap any) bool
	HyperSeal(now BitTime, snap any, windows int) (delta any, ok bool)
	HyperApply(now BitTime, delta any)
}

const (
	// hyperMemoMax bounds the memo table; on overflow the table resets
	// wholesale (the same policy as the controller plan cache) rather than
	// evicting, keeping the steady state allocation-free.
	hyperMemoMax = 4096
	// hyperMaxWindows caps a chain's window count regardless of bit length.
	hyperMaxWindows = 256
	// hyperMinWindows is the minimum chain length worth memoizing when a Run
	// boundary ends a recording early.
	hyperMinWindows = 4
	// hyperDefaultChain is the chain-length target in bits when the caller
	// has not wired a schedule hyperperiod via SetHyperChainBits.
	hyperDefaultChain = 1 << 13
)

// hyperSeg is one committed op of a recorded chain: an idle jump (resolved
// nil) or a spliced window (the memoized resolved span, shared with the
// splice tier's SpliceMemo — never copied). Segments exist to replay the
// taps; node state replays through the sealed deltas.
type hyperSeg struct {
	idle     int64
	resolved []can.Level
}

// HyperMemo is one compiled hyperperiod super-window: the per-node entry
// snapshots and sealed deltas for a recorded chain of splice windows and
// idle gaps, keyed by the joint quiescent-state fingerprint at its anchor.
type HyperMemo struct {
	gen          uint64 // Bus.hyperGen at record time (attach/detach stamp)
	sgen         uint64 // Bus.spliceGen the chain's windows were compiled under
	fp           uint64
	n            int64
	windows      int
	entryLast    can.Level
	entryIdleRun int
	exitLast     can.Level
	exitIdleRun  int
	entries      []any
	deltas       []any
	segs         []hyperSeg
	tape         []telemetry.Event // event times relative to the chain start
}

// hyperRecording is an in-flight chain recording.
type hyperRecording struct {
	fp           uint64
	start        BitTime
	edge         BitTime // first absolute multiple of the chain target past start
	entryLast    can.Level
	entryIdleRun int
	entries      []any
	segs         []hyperSeg
	bits         int64
	windows      int
	capturing    bool
}

// hyperForwardedTotal is the process-wide counter for the hyperperiod path,
// alongside its idle/frame/contend/splice siblings.
var hyperForwardedTotal atomic.Int64

// HyperForwardedTotal returns the cumulative process-wide count of bits
// advanced via the hyperperiod super-splice fast path.
func HyperForwardedTotal() int64 { return hyperForwardedTotal.Load() }

// SetHyperFastForward enables or disables the hyperperiod super-splice path
// independently of the lower tiers (enabled by default). Note the tier
// chains compiled splice windows, so disabling the splice tier disables this
// one too.
func (b *Bus) SetHyperFastForward(on bool) {
	b.hyperFFOff = !on
	if !on {
		b.hyperAbort()
		b.hyperArmed = false
	}
}

// HyperForwardedBits returns how many bits this bus advanced via the
// hyperperiod super-splice fast path.
func (b *Bus) HyperForwardedBits() int64 { return b.ffHyperBits }

// SetHyperChainBits sets the chain-length target in bits — normally the
// schedule hyperperiod of the traffic on this bus (restbus wires it from
// Matrix.HyperperiodBits), so that one memo covers one hyperperiod and the
// working set is the rolling-counter rotation. Zero restores the default.
func (b *Bus) SetHyperChainBits(n int64) {
	if n < 0 {
		n = 0
	}
	b.hyperChainBits = n
}

// HyperChainBits returns the configured chain-length target, or zero when
// the default applies.
func (b *Bus) HyperChainBits() int64 { return b.hyperChainBits }

// HyperMemoCount returns the number of compiled super-windows currently
// cached (for tests and diagnostics).
func (b *Bus) HyperMemoCount() int { return len(b.hyperMemos) }

// HyperGen returns the hyper generation stamp — bumped on every Attach and
// Detach — that every cached super-window is validated against.
func (b *Bus) HyperGen() uint64 { return b.hyperGen }

// hyperTarget returns the configured chain-length target.
func (b *Bus) hyperTarget() int64 {
	if b.hyperChainBits > 0 {
		return b.hyperChainBits
	}
	return hyperDefaultChain
}

// hyperEligible reports whether the tier can run at all on this bus: every
// node speaks Hypering, every tap can absorb both idle runs and bit runs,
// and neither the global kill switch nor the splice tier (whose windows the
// chains are made of) is off.
func (b *Bus) hyperEligible() bool {
	return !b.ffDisabled && !b.hyperFFOff && !b.spliceFFOff &&
		b.hyperPinned == 0 && b.splicePinned == 0 &&
		b.tapPinned == 0 && b.tapRunPinned == 0 &&
		len(b.nodes) > 0
}

// fnvMix folds one 64-bit word into a running FNV-1a hash.
func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	return h
}

// tryHyperForward is the top rung of the fast-forward ladder. While a
// recording is in flight it only checks the finalize thresholds and lets the
// lower tiers keep extending the chain. At an anchor it fingerprints the
// joint state, applies a matching memo in O(1), or starts a new recording.
// It returns false — having advanced nothing — in every case except a memo
// application.
func (b *Bus) tryHyperForward(end BitTime) bool {
	if rec := b.hyperRec; rec != nil {
		// Chains close on the first idle tail at or past an absolute
		// multiple of the chain target (the schedule hyperperiod). The edge
		// grid — not a chain-relative length — is what locks anchor phases:
		// a periodic schedule looks identical around every multiple of its
		// hyperperiod, so the first idle-tail overshoot past each edge is
		// the same, every anchor lands on the same schedule-relative spot,
		// and the fingerprint working set closes after one payload-counter
		// rotation instead of drifting with chain-length history. Idle
		// tails themselves end at schedule-due bits, absolute-time-anchored
		// for the same reason. The window and hard bit caps are fallbacks
		// for gapless traffic.
		k := len(rec.segs)
		idleTail := k > 0 && rec.segs[k-1].resolved == nil
		if (b.now >= rec.edge && idleTail) ||
			rec.windows >= hyperMaxWindows || rec.bits >= 4*b.hyperTarget() {
			b.hyperFinalize()
		} else {
			return false
		}
	}
	if !b.hyperArmed || end <= b.now || !b.hyperEligible() {
		return false
	}
	// A hub that has not opted in to capture (a shared hub would interleave
	// foreign events on the tape) can never record a chain's telemetry, so
	// the bus never records a chain on it and has no memo to serve: decline
	// before fingerprinting every node.
	hub := b.tel.Hub()
	if hub != nil && !hub.CaptureAllowed() {
		return false
	}
	h := uint64(14695981039346656037)
	h = fnvMix(h, uint64(b.last))
	h = fnvMix(h, uint64(b.idleRun))
	for _, hc := range b.hyperCap {
		fp, ok := hc.HyperFP(b.now, hub)
		if !ok {
			return false
		}
		h = fnvMix(h, fp)
	}
	if memo, ok := b.hyperMemos[h]; ok {
		if memo.gen != b.hyperGen || memo.sgen != b.spliceGen {
			delete(b.hyperMemos, h) // stale generation: never served
			return false
		}
		if b.now+BitTime(memo.n) > end ||
			memo.entryLast != b.last || memo.entryIdleRun != b.idleRun {
			return false
		}
		for i, hc := range b.hyperCap {
			if !hc.HyperMatch(b.now, memo.entries[i]) {
				return false
			}
		}
		b.hyperApply(memo)
		return true
	}
	// Miss: start a recording.
	if hub != nil && !hub.StartCapture() {
		return false
	}
	target := BitTime(b.hyperTarget())
	rec := &hyperRecording{
		fp:           h,
		start:        b.now,
		edge:         (b.now/target + 1) * target,
		entryLast:    b.last,
		entryIdleRun: b.idleRun,
		capturing:    hub != nil,
		entries:      make([]any, len(b.hyperCap)),
	}
	for i, hc := range b.hyperCap {
		rec.entries[i] = hc.HyperSnap(b.now)
	}
	b.hyperRec = rec
	return false
}

// hyperApply commits a verified memo: every node folds its sealed delta, the
// taps replay the chain segment by segment, the telemetry tape replays
// time-shifted, and the clock advances by the whole chain.
func (b *Bus) hyperApply(m *HyperMemo) {
	start := b.now
	exit := start + BitTime(m.n)
	for i, hc := range b.hyperCap {
		hc.HyperApply(exit, m.deltas[i])
	}
	t := start
	for _, seg := range m.segs {
		if seg.resolved == nil {
			for _, ft := range b.ffTaps {
				ft.SkipIdle(t, t+BitTime(seg.idle))
			}
			t += BitTime(seg.idle)
		} else {
			for _, tr := range b.tapRun {
				tr.BitRun(t, seg.resolved)
			}
			t += BitTime(len(seg.resolved))
		}
	}
	b.tel.Emit(int64(start), telemetry.EvFFSpan, m.n, 4)
	if hub := b.tel.Hub(); hub != nil && len(m.tape) > 0 {
		hub.ReplayShifted(m.tape, int64(start))
	}
	b.idleRun = m.exitIdleRun
	b.last = m.exitLast
	b.now = exit
	b.ffHyperBits += m.n
	hyperForwardedTotal.Add(m.n)
	// b.hyperArmed stays true: steady-state hyperperiods apply back to back.
}

// hyperIdleRecorded extends an in-flight recording with a committed idle
// jump (called from jumpIdle; a no-op otherwise).
func (b *Bus) hyperIdleRecorded(n int64) {
	rec := b.hyperRec
	if rec == nil {
		return
	}
	if k := len(rec.segs); k > 0 && rec.segs[k-1].resolved == nil {
		rec.segs[k-1].idle += n // merge consecutive idles: SkipIdle is count-pure
	} else {
		rec.segs = append(rec.segs, hyperSeg{idle: n})
	}
	rec.bits += n
}

// hyperSpliceRecorded extends an in-flight recording with a committed splice
// window (called from trySpliceForward on success; a no-op otherwise). The
// resolved span is shared with the window's SpliceMemo, not copied.
func (b *Bus) hyperSpliceRecorded(resolved []can.Level) {
	rec := b.hyperRec
	if rec == nil {
		return
	}
	rec.segs = append(rec.segs, hyperSeg{resolved: resolved})
	rec.bits += int64(len(resolved))
	rec.windows++
}

// hyperStepRecorded extends an in-flight recording with one exact-stepped
// recessive bit (called from Run after such a step; a no-op otherwise). A
// recessive exact step is chain-safe: the wire effect is one idle bit (taps
// replay it as a 1-bit SkipIdle, which their contract defines as equivalent),
// any events it emitted are on the captured tape, and node state needs no
// per-op accounting because the sealed deltas are entry-vs-exit diffs and
// the entry match pins the whole deterministic evolution. This is what lets
// chains run through schedule-due bits — the bus exact-steps exactly one
// recessive bit there so the replayer's enqueue scan fires — without
// clamping at every gap.
func (b *Bus) hyperStepRecorded() {
	b.hyperIdleRecorded(1)
}

// hyperDivert marks that the evolution left the pure splice/idle regime: any
// dominant exact step, frame-path span, or contended span both aborts an
// in-flight recording and disarms the anchor (the next anchor is the next
// committed splice).
func (b *Bus) hyperDivert() {
	b.hyperArmed = false
	b.hyperAbort()
}

// hyperAbort discards an in-flight recording.
func (b *Bus) hyperAbort() {
	if b.hyperRec == nil {
		return
	}
	if b.hyperRec.capturing {
		b.tel.Hub().StopCapture()
	}
	b.hyperRec = nil
}

// hyperRunEnd closes a recording at a Run boundary: chains long enough to be
// worth replaying are sealed (external mutation between Runs is exactly what
// the entry match re-verifies), shorter ones are discarded.
func (b *Bus) hyperRunEnd() {
	if b.hyperRec == nil {
		return
	}
	if b.hyperRec.windows >= hyperMinWindows {
		b.hyperFinalize()
	} else {
		b.hyperAbort()
	}
}

// hyperFinalize seals an in-flight recording into a memo: every node
// compiles its delta against its entry snapshot; any decline abandons the
// chain (correctness never depends on sealing succeeding).
func (b *Bus) hyperFinalize() {
	rec := b.hyperRec
	b.hyperRec = nil
	seal := rec.windows >= hyperMinWindows
	deltas := make([]any, len(b.hyperCap))
	if seal {
		for i, hc := range b.hyperCap {
			d, ok := hc.HyperSeal(b.now, rec.entries[i], rec.windows)
			if !ok {
				seal = false
				break
			}
			deltas[i] = d
		}
	}
	var tape []telemetry.Event
	if rec.capturing {
		tape = b.tel.Hub().StopCapture()
		for i := range tape {
			tape[i].Time -= int64(rec.start)
		}
	}
	if !seal {
		return
	}
	if b.hyperMemos == nil {
		b.hyperMemos = make(map[uint64]*HyperMemo)
	} else if len(b.hyperMemos) >= hyperMemoMax {
		b.hyperMemos = make(map[uint64]*HyperMemo) // reset-on-full
	}
	b.hyperMemos[rec.fp] = &HyperMemo{
		gen:          b.hyperGen,
		sgen:         b.spliceGen,
		fp:           rec.fp,
		n:            rec.bits,
		windows:      rec.windows,
		entryLast:    rec.entryLast,
		entryIdleRun: rec.entryIdleRun,
		exitLast:     b.last,
		exitIdleRun:  b.idleRun,
		entries:      rec.entries,
		deltas:       deltas,
		segs:         rec.segs,
		tape:         tape,
	}
}
