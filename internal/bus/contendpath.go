package bus

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"michican/internal/can"
	"michican/internal/telemetry"
)

// ContendCommitter is the capability of the contend rung's drivers: a node
// that can publish the levels it will drive, alone on the wire or while
// other nodes drive too.
//
// ContendBits(now) returns the exact levels this node drives for bits
// [now, horizon) *conditional on winning every monitored bit so far*: as long
// as each resolved bus bit equals the node's own driven bit, the node keeps
// driving the published stream. The bus computes the wired-AND of all
// published streams and clamps the batch at the first divergence bit — the
// first position where some committer's recessive is overridden by another's
// dominant (an arbitration loss, a bit error under a counterattack pull, or a
// stuff-error collision). That bit, where the loser's behaviour forks, is
// re-stepped exactly. A sole committer is the uncontended case: its stream is
// the resolved span. The stream must exclude any bit whose observed level
// feeds back into the node's next drive decision (a transmitter's ACK slot);
// a frame's final EOF bit may commit — its level is unconditional — provided
// the node's ObserveRun fires the completion events at that exact bit time. A
// horizon <= now, or an empty slice, declines.
//
// ContendFrameBit reports the wire index within the current frame (SOF = 0)
// of the bit the node drives at query time when the stream comes from a
// serialized transmit plan, and -1 for unconditional dominant runs (error
// flags, counterattack pulls) that carry no frame position. Receivers use it
// to prove they are bit-synchronized to the committed stream.
type ContendCommitter interface {
	ContendBits(now BitTime) ([]can.Level, BitTime)
	ContendFrameBit() int
}

// RunObserver is the batch-delivery capability of the contend rung. Nodes
// lacking it pin the rung: every committed span is exact-stepped.
//
// PassiveRun(now, frameBit, levels) is the span-side analogue of
// Quiescent.QuiescentUntil: the bus proposes that bits [now, now+len(levels))
// resolve to exactly levels (the committers' resolved stream, whose position
// within its frame is frameBit, or -1 for flag and pull runs), and the node
// answers with the longest prefix it can consume while (a) driving recessive
// for every one of those bits and (b) deferring no externally visible event —
// no error flag, no frame-completion callback, no counterattack pull — past
// the prefix. The answer must be prefix-monotone: accepting k bits implies the
// same k bits would be accepted from any longer proposal. Returning 0 pins the
// span. PassiveRun must not mutate any state — the bus may discard the
// proposal.
//
// ObserveRun(from, levels) then delivers a (possibly clamped) span for real:
// the node must leave itself in exactly the state len(levels) per-bit
// Observe calls with these resolved levels would have produced.
type RunObserver interface {
	PassiveRun(now BitTime, frameBit int, levels []can.Level) int
	ObserveRun(from BitTime, levels []can.Level)
}

// TapRunObserver is the tap-side analogue of RunObserver: a Tap that can
// record a run of resolved levels in one call. Taps without it pin the
// contend and splice rungs (they need every Bit call).
type TapRunObserver interface {
	BitRun(from BitTime, levels []can.Level)
}

// minFrameRun is the shortest span worth negotiating: below this the
// per-node scan overhead exceeds the cost of exact stepping.
const minFrameRun = 4

// contendForwardedTotal is the process-wide counter for the contend rung,
// alongside its idle and splice siblings.
var contendForwardedTotal atomic.Int64

// ContendForwardedTotal returns the cumulative process-wide count of bits
// advanced via the contested-window fast path.
func ContendForwardedTotal() int64 { return contendForwardedTotal.Load() }

// ContendForwardedBits returns how many bits this bus advanced via the
// contested-window fast path.
func (b *Bus) ContendForwardedBits() int64 { return b.ffContendBits }

// contendScratch is the per-proposal working set of tryContendForward: the
// committer index list, their published streams, the bit-packed words (one
// row of W words per committer, flat), and the running wired-AND row. Buses
// keep one between negotiations and recycle it through a pool, so steady-state
// proposals allocate nothing even across the short-lived buses of parallel
// experiment runs.
type contendScratch struct {
	idx   []int
	bits  [][]can.Level
	words []uint64
	and   []uint64
}

// release drops all node-owned slice references (the committed streams alias
// immutable transmit plans whose lifetime belongs to their controllers) so a
// pooled scratch pins no detached node's memory.
func (sc *contendScratch) release() {
	for i := range sc.bits {
		sc.bits[i] = nil
	}
	sc.bits = sc.bits[:0]
	sc.idx = sc.idx[:0]
}

var contendScratchPool = sync.Pool{New: func() any { return new(contendScratch) }}

// invalidateProposal discards the bus's retained proposal scratch — called by
// Detach, because a cached proposal may reference the detached node's
// committed stream, and by anything else that makes in-flight span bookkeeping
// stale.
func (b *Bus) invalidateProposal() {
	if b.contendSc == nil {
		return
	}
	b.contendSc.release()
	contendScratchPool.Put(b.contendSc)
	b.contendSc = nil
}

// tryContendForward attempts one batch advance of committed streams, bounded
// by end — one driver or many:
//
//  1. every ContendCommitter publishes its conditional stream; conflicting
//     frame positions among plan-backed streams decline the proposal (the
//     drivers are not bit-aligned — nothing to resolve in bulk);
//  2. each stream is bit-packed into []uint64 words (set bit = recessive, as
//     in trace.Recorder) and the resolved span is their word-wise AND;
//  3. the first divergence bit — where some committer's recessive is overridden
//     (committed &^ resolved != 0) — clamps the span via TrailingZeros64; the
//     divergence bit itself is left to an exact Step, where arbitration loss,
//     bit error, or stuff error runs the ordinary per-bit logic;
//  4. within the clamp the resolved levels equal *every* committer's own
//     bits, so the first committer's stream stands in for the resolved span,
//     and the usual passive negotiation and RunObserver/TapRunObserver
//     delivery machinery finishes the job.
func (b *Bus) tryContendForward(end BitTime) bool {
	if !b.open(RungContend) || end <= b.now {
		return false
	}
	var sc *contendScratch
	n := int(end - b.now)
	frameBit := -1
	nodes, taps := b.nodes, b.taps
	for i := range nodes {
		cc := nodes[i].contend
		if cc == nil {
			continue
		}
		levels, h := cc.ContendBits(b.now)
		if h <= b.now || len(levels) == 0 {
			continue
		}
		if m := int64(h - b.now); m < int64(len(levels)) {
			levels = levels[:m]
		}
		if fb := cc.ContendFrameBit(); fb >= 0 {
			if frameBit >= 0 && frameBit != fb {
				if sc != nil {
					sc.release()
				}
				return false // misaligned plan streams: exact-step it
			}
			frameBit = fb
		}
		if sc == nil {
			// Scratch is acquired lazily: the common decline — no committer
			// at all — touches neither the retained scratch nor the pool.
			if sc = b.contendSc; sc == nil {
				sc = contendScratchPool.Get().(*contendScratch)
				b.contendSc = sc
			}
		}
		sc.idx = append(sc.idx, i)
		sc.bits = append(sc.bits, levels)
		if len(levels) < n {
			n = len(levels)
		}
	}
	if sc == nil {
		return false
	}
	defer sc.release()
	if n < minFrameRun {
		return false
	}
	if len(sc.idx) > 1 {
		n = contendResolve(sc, n)
		if n < minFrameRun {
			return false
		}
	}
	// The resolved span equals each committer's own bits over the clamp.
	span := sc.bits[0][:n]
	next := 0
	for i := range nodes {
		if next < len(sc.idx) && sc.idx[next] == i {
			next++ // committers are not passive parties
			continue
		}
		k := nodes[i].run.PassiveRun(b.now, frameBit, span[:n])
		if k < n {
			n = k
		}
		if n < minFrameRun {
			return false
		}
	}
	span = span[:n]
	for i := range nodes {
		nodes[i].run.ObserveRun(b.now, span)
	}
	for i := range taps {
		taps[i].run.BitRun(b.now, span)
	}
	if k := trailingRecessive(span); k == n {
		b.idleRun += n
	} else {
		b.idleRun = k
	}
	b.tel.Emit(int64(b.now), telemetry.EvFFSpan, int64(n), 2)
	b.last = span[n-1]
	b.now += BitTime(n)
	b.ffContendBits += int64(n)
	contendForwardedTotal.Add(int64(n))
	return true
}

// contendResolve packs every committed stream, ANDs them word-wise, and
// returns the span length clamped at the first divergence bit (n unchanged
// when no committer's recessive is overridden within the first n bits).
func contendResolve(sc *contendScratch, n int) int {
	w := (n + 63) >> 6
	need := (len(sc.bits) + 1) * w
	if cap(sc.words) < need {
		sc.words = make([]uint64, need)
	}
	sc.words = sc.words[:need]
	for i := range sc.words {
		sc.words[i] = 0
	}
	sc.and = sc.words[len(sc.bits)*w:]
	for k, levels := range sc.bits {
		can.PackLevels(sc.words[k*w:(k+1)*w], 0, levels[:n])
	}
	copy(sc.and, sc.words[:w])
	for k := 1; k < len(sc.bits); k++ {
		row := sc.words[k*w : (k+1)*w]
		for j := range sc.and {
			sc.and[j] &= row[j]
		}
	}
	for j := 0; j < w; j++ {
		var d uint64
		for k := range sc.bits {
			d |= sc.words[k*w+j] &^ sc.and[j]
		}
		if d != 0 {
			if div := j<<6 + bits.TrailingZeros64(d); div < n {
				return div
			}
			return n
		}
	}
	return n
}

// trailingRecessive returns the length of the trailing recessive run.
func trailingRecessive(levels []can.Level) int {
	k := 0
	for i := len(levels) - 1; i >= 0 && levels[i] == can.Recessive; i-- {
		k++
	}
	return k
}
