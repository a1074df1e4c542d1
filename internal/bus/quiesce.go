package bus

import (
	"math"
	"sync/atomic"

	"michican/internal/can"
	"michican/internal/telemetry"
)

// QuiescentForever is the horizon a node returns from QuiescentUntil when it
// will never spontaneously drive dominant or change state while the bus stays
// recessive (e.g. an idle controller with an empty transmit queue).
const QuiescentForever = BitTime(math.MaxInt64)

// Quiescent is an optional capability a Node may implement to let the bus
// fast-forward through idle stretches.
//
// QuiescentUntil(now) is a promise: assuming every bit in [now, horizon)
// resolves recessive, this node drives recessive for all of them and its
// externally visible behaviour over that prefix is a pure function of the
// bit count (computable in O(1)). A horizon <= now declines the promise and
// pins the bus to exact per-bit stepping. Nodes with time-triggered work (a
// pending transmission, a scheduled replay, bus-off recovery) return the bit
// time of that event so the bus resumes exact stepping there.
//
// When every node and tap on a bus is quiescent past the current bit, the
// bus skips the clock to the minimum horizon and calls SkipIdle(from, to) on
// each participant instead of per-bit Drive/Observe. SkipIdle must leave the
// node in exactly the state it would have reached had it observed to-from
// recessive bits one at a time.
type Quiescent interface {
	QuiescentUntil(now BitTime) BitTime
	SkipIdle(from, to BitTime)
}

// TapFastForwarder is the tap-side analogue of Quiescent: a Tap that can
// account for a run of recessive bits in one call. Taps that do not
// implement it pin the bus to exact stepping (they need every Bit call).
type TapFastForwarder interface {
	SkipIdle(from, to BitTime)
}

// Process-wide counters. simulatedBits counts every nominal bit time
// advanced by Run/RunFor/RunUntil across all buses in the process, whether
// exact-stepped or fast-forwarded; cmd/michican-bench divides it by wall time
// for a bits-per-second throughput figure. idleForwardedTotal counts the
// idle rung's share (the other rungs keep theirs beside their paths).
var (
	simulatedBits      atomic.Int64
	idleForwardedTotal atomic.Int64
)

// SimulatedBits returns the cumulative process-wide simulated bit count.
func SimulatedBits() int64 { return simulatedBits.Load() }

// IdleForwardedTotal returns the cumulative process-wide count of bits
// advanced via the idle (quiescence) fast path.
func IdleForwardedTotal() int64 { return idleForwardedTotal.Load() }

// Rung is one step of the fast-forward ladder. The ladder is ordered: a bus
// whose top rung is r tries every rung from RungIdle through r and
// exact-steps whatever they all decline, so every setting is a prefix of the
// ladder.
type Rung uint8

// The rungs, in ladder order.
const (
	// RungExact takes no fast path: every bit goes through Drive/Observe —
	// the reference for the differential tests.
	RungExact Rung = iota
	// RungIdle jumps stretches in which every participant is quiescent.
	RungIdle
	// RungContend delivers committed spans in bulk: one or more drivers
	// publish their streams, the bus resolves the wired-AND and clamps at
	// the first divergence (contendpath.go).
	RungContend
	// RungSplice splices whole compiled frame windows in O(1) per node
	// (splicepath.go).
	RungSplice
)

// SetLadder sets the highest rung the bus may take (RungSplice, the full
// ladder, by default). RungExact forces per-bit stepping regardless of node
// capabilities.
func (b *Bus) SetLadder(top Rung) { b.top = top }

// repin recomputes which rungs some participant pins — lacks a capability
// the rung needs: Quiescent (nodes) and TapFastForwarder (taps) for the idle
// rung, RunObserver and TapRunObserver for the contend rung, Splicing and
// TapRunObserver for the splice rung.
func (b *Bus) repin() {
	var pinned uint8
	for _, r := range b.nodes {
		if r.quiet == nil {
			pinned |= 1 << RungIdle
		}
		if r.run == nil {
			pinned |= 1 << RungContend
		}
		if r.splice == nil {
			pinned |= 1 << RungSplice
		}
	}
	for _, r := range b.taps {
		if r.skip == nil {
			pinned |= 1 << RungIdle
		}
		if r.run == nil {
			pinned |= 1<<RungContend | 1<<RungSplice
		}
	}
	b.pinned = pinned
}

// open reports whether rung r is enabled and no participant pins it.
func (b *Bus) open(r Rung) bool {
	return r <= b.top && b.pinned&(1<<r) == 0
}

// IdleForwardedBits returns how many bits this bus skipped via the idle
// quiescence path.
func (b *Bus) IdleForwardedBits() int64 { return b.ffSkipped }

// FastForwardedBits returns how many bit times this bus advanced via a fast
// path — the idle quiescence jump, the contested-window path, and the
// compiled-splice path — rather than exact stepping.
func (b *Bus) FastForwardedBits() int64 {
	return b.ffSkipped + b.ffContendBits + b.ffSpliceBits
}

// idleHorizon computes the furthest bit time, bounded by end and the next
// wake, through which every node promises quiescence. It returns b.now when
// any participant pins the bus or declines the promise, or a node is due. It
// performs no state changes.
func (b *Bus) idleHorizon(end BitTime) BitTime {
	end = min(end, b.wake)
	if !b.open(RungIdle) || end <= b.now {
		return b.now
	}
	if len(b.nodes) == 0 {
		// An empty bus is trivially cheap to step exactly, and callers of
		// RunUntil on a bare bus (tests, examples) may poll Now() in their
		// predicates; keep their per-bit timing.
		return b.now
	}
	horizon := end
	nodes := b.nodes
	for i := range nodes {
		h := nodes[i].quiet.QuiescentUntil(b.now)
		if h <= b.now {
			return b.now
		}
		if h < horizon {
			horizon = h
		}
	}
	return horizon
}

// jumpIdle commits a quiescent jump to the given horizon, which the caller
// must have obtained from idleHorizon with no intervening state changes.
func (b *Bus) jumpIdle(horizon BitTime) {
	n := int64(horizon - b.now)
	nodes, taps := b.nodes, b.taps
	for i := range nodes {
		nodes[i].quiet.SkipIdle(b.now, horizon)
	}
	for i := range taps {
		taps[i].skip.SkipIdle(b.now, horizon)
	}
	b.tel.Emit(int64(b.now), telemetry.EvFFSpan, n, 0)
	b.idleRun += int(n)
	b.last = can.Recessive
	b.now = horizon
	b.ffSkipped += n
	idleForwardedTotal.Add(n)
}

// tryFastForward attempts one quiescent jump, bounded by end. It returns
// false — having done nothing — when any participant pins the bus or
// declines, in which case the walker tries the next rung down.
//
// The bound matters for correctness: external code only interacts with the
// bus (Enqueue, Attach, predicate checks) at Run-family boundaries and
// nodes' wakes, so a jump may never overshoot either.
func (b *Bus) tryFastForward(end BitTime) bool {
	horizon := b.idleHorizon(end)
	if horizon <= b.now {
		return false
	}
	b.jumpIdle(horizon)
	return true
}
