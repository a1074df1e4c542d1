package restbus

import "michican/internal/bus"

var _ bus.Splicing = (*Replayer)(nil)

// SpliceOffer implements bus.Splicing: the controller's offer, declined when
// a schedule deadline is due at this very bit — the enqueue could reorder a
// priority-sorted mailbox's head out from under the offered window, exactly
// as ContendBits declines a due-at-SOF commitment. Deadlines due strictly
// inside the resolved span are fine: Enqueue is a pure mailbox push (the
// in-flight plan is latched and txSuccess removes that specific frame, not
// the head), so SpliceCommit replays them at their recorded bit times before
// the completion callbacks run, matching the exact path's
// scanDue-before-Observe order at every bit including the last.
//
// The one exception is the offered message's own deadline landing in the
// intermission tail: exact stepping clears its outstanding flag at the frame
// end, before such a due fires, while the commit-time drain runs before
// OnTransmit — so the drain would record a deadline miss the exact path does
// not. Those windows are declined.
func (r *Replayer) SpliceOffer(now bus.BitTime) *bus.SpliceWindow {
	if r.nextScan <= now {
		return nil
	}
	win := r.ctl.SpliceOffer(now)
	if win == nil {
		return nil
	}
	if i := r.itemIdx(win.RxView.ID); i >= 0 {
		to := now + bus.BitTime(len(win.Resolved))
		if r.items[i].nextDue < to {
			return nil
		}
	}
	return win
}

// SpliceQuery implements bus.Splicing: the controller's promise alone. A
// deadline due at or inside the window is safe on the receiving side — no
// transmission can complete, so the outstanding flags scanDue reads are
// constant across the window and the enqueues only touch the dormant queue,
// which no windowed bit observes (the same argument ObserveRun's whole-span
// branch rests on).
func (r *Replayer) SpliceQuery(now bus.BitTime, w *bus.SpliceWindow) (bool, bool) {
	return r.ctl.SpliceQuery(now, w)
}

// SpliceApply implements bus.Splicing: process every deadline the window
// covered at its recorded due time, then fold the controller — identical
// period arithmetic and miss/enqueue stamps to the exact path, in the same
// order. Draining first matters at the window's edge: the controller's
// end-of-intermission transition reads the queue, so a deadline enqueued
// anywhere in the span must already be there — exactly as the exact path's
// scanDue-before-Observe order guarantees bit by bit.
func (r *Replayer) SpliceApply(now bus.BitTime, w *bus.SpliceWindow) {
	r.drainDue(now, w)
	r.ctl.SpliceApply(now, w)
}

// SpliceCommit implements bus.Splicing: process every deadline the window
// covered at its recorded due time, then fold the controller. Exact stepping
// runs scanDue before ctl.Observe within each bit, so every in-window due —
// including one at the final bit — lands before txSuccess fires OnTransmit
// there; draining first preserves that order, and with it the deadline-miss
// check against the still-outstanding in-flight message.
func (r *Replayer) SpliceCommit(now bus.BitTime, w *bus.SpliceWindow) {
	r.drainDue(now, w)
	r.ctl.SpliceCommit(now, w)
}

// drainDue processes every deadline due inside the window, at its recorded
// due time.
func (r *Replayer) drainDue(now bus.BitTime, w *bus.SpliceWindow) {
	to := now + bus.BitTime(len(w.Resolved))
	for r.nextScan < to {
		r.scanDue(r.nextScan)
	}
}

// WarmSplice precompiles the transmit plans for the next rounds instances of
// every scheduled message — the frames the rolling sequence counter will
// produce — so steady-state splicing starts on compiled plans instead of
// paying a serialization on each first sight. On a shared plan source the
// first replayer compiles and every later one resolves by lookup.
func (r *Replayer) WarmSplice(rounds int) {
	for i := range r.items {
		item := &r.items[i]
		seq := item.seq
		for k := 0; k < rounds; k++ {
			seq++
			r.plannedFor(item, seq)
		}
	}
}
