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

// simulatedBits counts every nominal bit time advanced by Run/RunFor/
// RunUntil across all buses in the process, whether exact-stepped or
// fast-forwarded. cmd/michican-bench divides it by wall time for a
// bits-per-second throughput figure.
var simulatedBits atomic.Int64

// SimulatedBits returns the cumulative process-wide simulated bit count.
func SimulatedBits() int64 { return simulatedBits.Load() }

// AddSimulatedBits credits bits advanced outside the Run family (callers
// that drive Step directly in their own loops).
func AddSimulatedBits(n int64) {
	if n > 0 {
		simulatedBits.Add(n)
	}
}

// SetFastForward enables or disables idle fast-forwarding (enabled by
// default). Disabling forces exact per-bit stepping regardless of node
// capabilities — the reference path for golden-trace differential tests.
func (b *Bus) SetFastForward(on bool) { b.ffDisabled = !on }

// FastForwardedBits returns how many bit times this bus advanced via a fast
// path — the idle quiescence jump, the sole-transmitter frame path, the
// contested-window path, and the compiled-splice path — rather than exact
// stepping.
func (b *Bus) FastForwardedBits() int64 {
	return b.ffSkipped + b.ffFrameBits + b.ffContendBits + b.ffSpliceBits
}

// idleHorizon computes the furthest bit time, bounded by end, through which
// every node promises quiescence. It returns b.now when any participant pins
// the bus or declines the promise. It performs no state changes.
func (b *Bus) idleHorizon(end BitTime) BitTime {
	if b.ffDisabled || b.pinned > 0 || b.tapPinned > 0 || end <= b.now {
		return b.now
	}
	if len(b.nodes) == 0 {
		// An empty bus is trivially cheap to step exactly, and callers of
		// RunUntil on a bare bus (tests, examples) may poll Now() in their
		// predicates; keep their per-bit timing.
		return b.now
	}
	horizon := end
	for _, q := range b.quiescent {
		h := q.QuiescentUntil(b.now)
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
	for _, q := range b.quiescent {
		q.SkipIdle(b.now, horizon)
	}
	for _, ft := range b.ffTaps {
		ft.SkipIdle(b.now, horizon)
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
// declines, in which case the caller tries the frame fast path and then an
// exact Step.
//
// The bound matters for correctness: external code only interacts with the
// bus (Enqueue, Attach, predicate checks) at Run-family boundaries, so a
// jump may never overshoot the window the caller asked for.
func (b *Bus) tryFastForward(end BitTime) bool {
	horizon := b.idleHorizon(end)
	if horizon <= b.now {
		return false
	}
	b.jumpIdle(horizon)
	return true
}
