package restbus

import (
	"michican/internal/bus"
	"michican/internal/can"
)

var (
	_ bus.RunObserver      = (*Replayer)(nil)
	_ bus.ContendCommitter = (*Replayer)(nil)
)

// ContendBits implements bus.ContendCommitter: the controller's commitment.
// A controller mid-frame or signalling an error never consults its transmit
// queue before the phase ends, so a scheduled deadline inside the span does
// not alter any drive decision; ObserveRun interleaves every due item at its
// exact virtual bit, before the controller consumes that bit. (Deadlines due
// while the controller is *outside* a frame keep their exact-step treatment
// through QuiescentUntil and the PassiveRun clamp below.) The one
// commitment that does read the queue is a pending SOF (the head frame is
// serialized at the SOF bit itself), so it declines when a deadline is due at
// this very bit — the enqueue could reorder a priority-sorted mailbox's head
// out from under the published stream; the SOF is exact-stepped instead, as
// on the per-bit path.
func (r *Replayer) ContendBits(now bus.BitTime) ([]can.Level, bus.BitTime) {
	if !r.ctl.InFrame() && r.nextScan <= now {
		return nil, now
	}
	return r.ctl.ContendBits(now)
}

// ContendFrameBit implements bus.ContendCommitter.
func (r *Replayer) ContendFrameBit() int { return r.ctl.ContendFrameBit() }

// PassiveRun implements bus.RunObserver: the controller's answer, clamped
// below the earliest deadline only when the controller is at a point where an
// enqueue changes its drive decisions (idle, intermission, suspend — the
// phases that poll the queue for a SOF). Inside a frame or an error signal
// the queue is dormant and the due item is instead processed by ObserveRun at
// its exact virtual bit.
func (r *Replayer) PassiveRun(now bus.BitTime, frameBit int, levels []can.Level) int {
	n := len(levels)
	if !r.ctl.InFrame() {
		if m := int64(r.nextScan - now); m < int64(n) {
			if m <= 0 {
				return 0
			}
			n = int(m)
		}
	}
	if k := r.ctl.PassiveRun(now, frameBit, levels[:n]); k < n {
		n = k
	}
	return n
}

// ObserveRun implements bus.RunObserver: the span is delivered to the
// controller in chunks split at every deadline that falls inside it, so each
// due item is processed at its exact virtual bit relative to the controller —
// after the bits before it, before the due bit itself. The ordering matters
// two ways: a frame whose final EOF bit lies in the span completes mid-span
// (OnTransmit clears the outstanding flag scanDue checks — a due bit earlier
// in the span must still see it set and record the deadline miss), and a
// frameBit-0 span begins a frame whose plan was chosen from the queue head at
// the SOF bit (dues strictly inside the span can only touch the queue, which
// the controller does not read again before its next exact-stepped bit).
func (r *Replayer) ObserveRun(from bus.BitTime, levels []can.Level) {
	to := from + bus.BitTime(len(levels))
	for r.nextScan < to {
		due := r.nextScan
		if due > from {
			r.ctl.ObserveRun(from, levels[:due-from])
			levels = levels[due-from:]
			from = due
		}
		r.scanDue(due)
	}
	if len(levels) > 0 {
		r.ctl.ObserveRun(from, levels)
	}
}
