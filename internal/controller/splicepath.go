package controller

import (
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/telemetry"
)

var _ bus.Splicing = (*Controller)(nil)

// SpliceOffer implements bus.Splicing. A controller offers a compiled window
// when it is about to assert SOF on an idle bus (pendingSOF) with a classical
// frame at the head of its mailbox: the transmit plan — memoized per frame
// content — is the whole wire window from SOF through the last EOF bit, with
// the ACK slot recessive. FD and oversize frames stay on the lower tiers
// (their fixed-stuff trailers recur too rarely to be worth compiling).
//
// RxView is precomputed to the exact frame a receiver's decodeRx would
// report, so receivers can deliver it without re-decoding the bit stream.
// The window lives in the controller and is rewritten on every offer.
func (c *Controller) SpliceOffer(now bus.BitTime) *bus.SpliceWindow {
	if c.phase != phaseIdle || !c.pendingSOF {
		return nil
	}
	f, p, ok := c.queue.head()
	if !ok || f.FD || len(f.Data) > can.MaxDataLen {
		return nil
	}
	c.pendingPlan, c.pendingFrame = p, f
	rx := can.Frame{ID: f.ID, Extended: f.Extended}
	if f.Remote {
		rx.Remote = true
		rx.RequestLen = f.RequestLen
		if rx.RequestLen > can.MaxDataLen {
			rx.RequestLen = can.MaxDataLen // receivers clamp DLC 9..15 to 8
		}
	} else {
		rx.Data = f.Data // receivers clone per delivery
	}
	c.offer = bus.SpliceWindow{Resolved: p.resolved, AckIdx: p.ackIdx, RxView: rx, PlanID: p.id}
	return &c.offer
}

// SpliceQuery implements bus.Splicing: promise, without mutating state, that
// this controller can absorb the whole resolved window as a passive receiver
// (or as an oblivious bus-off node). The promise mirrors PassiveRun's
// frameBit-0 join case, extended over the trailer: a synchronized receiver of
// a plan-backed stream can raise no error, acks are declared rather than
// driven, and every callback the window contains (OnReceive, counter
// updates) lands at its exact bit time in SpliceApply.
func (c *Controller) SpliceQuery(bus.BitTime, *bus.SpliceWindow) (bool, bool) {
	if c.driveNext == can.Dominant {
		return false, false
	}
	switch c.phase {
	case phaseIdle, phaseIntermission, phaseSuspend:
		if c.pendingSOF {
			return false, false // a competing contender: lower tiers arbitrate
		}
		return true, !c.cfg.ListenOnly
	case phaseBusOff:
		// The resolved span's trailing recessive run (ACK delimiter + EOF +
		// intermission = 11) reaches RecoveryIdleBits, so an auto-recovering
		// node could complete a recovery sequence — and possibly the rejoin
		// transition — at the window's edge; that stays on the lower tiers.
		// Without auto-recovery the node is oblivious and always passive.
		return !c.cfg.AutoRecover, false
	}
	return false, false
}

// SpliceApply implements bus.Splicing: fold the whole resolved span into a
// passive node in O(1), leaving it in exactly the state len(w.Resolved) per-bit
// Observe calls would have produced. For a receiver that is the
// rxComplete/endAttempt effect at the last EOF bit, with the precomputed
// RxView standing in for decodeRx, followed by the intermission tail's
// end-of-intermission transition; a bus-off node (non-recovering — the query
// declined auto-recovery) only tracks the idle run.
func (c *Controller) SpliceApply(now bus.BitTime, w *bus.SpliceWindow) {
	c.idleRun = 1 + can.EOFBits + IntermissionBits
	c.driveNext = can.Recessive
	if c.phase == phaseBusOff {
		return
	}
	// Receiver: rxComplete at the last EOF bit.
	end := now + bus.BitTime(len(w.Resolved)-IntermissionBits-1)
	c.stats.RxSuccess++
	if c.rec > PassiveThreshold {
		c.rec = PassiveThreshold
	} else if c.rec > 0 {
		c.rec--
	}
	c.emitCounters(end)
	c.updateState(end)
	if c.cfg.OnReceive != nil {
		rx := w.RxView
		if len(rx.Data) > 0 {
			rx.Data = append([]byte(nil), rx.Data...)
		}
		c.cfg.OnReceive(end, rx)
	}
	c.endAttempt(false)
	c.spliceTail()
}

// spliceTail replays the intermission tail's observable effect after
// endAttempt: three recessive bits count out the inter-frame space, and the
// threshold check at the last one — exactly observeIntermission's — either
// suspends an error-passive recent transmitter or returns to idle, asserting
// a pending SOF if frames are queued. interCount is left at the threshold,
// as three per-bit increments would leave it.
func (c *Controller) spliceTail() {
	c.interCount = IntermissionBits
	if c.state == ErrorPassive && c.framesSinceTx < 2 {
		c.phase = phaseSuspend
		c.suspendCount = 0
		return
	}
	c.phase = phaseIdle
	if c.queue.len() > 0 {
		c.driveNext = can.Dominant
		c.pendingSOF = true
	}
}

// SpliceCommit implements bus.Splicing: the offerer consumes its own window.
// The resolved levels match the pending plan everywhere except the ACK slot,
// which the transmitter never monitors on the batch path (the bus only
// commits a splice when a receiver declared the ack), so the whole window
// folds to beginFrame's entry effects plus txSuccess at the last bit — the
// per-bit monitoring in between can raise nothing. The fold replays exactly
// the telemetry, stats, counter updates, and callbacks the ObserveRun
// machinery would run, without touching the receive pipeline it would reset
// twice (endAttempt leaves it reset either way; txIdx and acked are dead
// until the next beginFrame rewrites them). Any state mismatch with the
// offer falls back to the full machinery.
func (c *Controller) SpliceCommit(now bus.BitTime, w *bus.SpliceWindow) {
	resolved := w.Resolved
	p := c.pendingPlan
	if c.phase == phaseIdle && c.pendingSOF && p != nil &&
		len(p.bits)+IntermissionBits == len(resolved) {
		// The in-flight frame is the one offered — latched in pendingFrame at
		// the window's SOF, exactly as beginFrame latches the head there. The
		// current head may already differ: schedule deadlines drained into the
		// span enqueue ahead of the commit, and a priority-sorted mailbox
		// re-sorts them above the in-flight frame, just as on the exact path.
		{
			f := c.pendingFrame
			end := now + bus.BitTime(len(p.bits)-1)
			c.pendingSOF, c.pendingPlan = false, nil
			c.stats.TxAttempts++
			c.tel.Emit(int64(now), telemetry.EvTxStart, int64(f.ID), 0)
			c.tel.Emit(int64(now)+int64(p.arbEnd-1), telemetry.EvArbWon, int64(f.ID), 0)
			c.idleRun = 1 + can.EOFBits + IntermissionBits
			c.driveNext = can.Recessive
			c.acked = false
			c.queue.remove(f)
			c.stats.TxSuccess++
			c.tel.Emit(int64(end), telemetry.EvTxSuccess, int64(f.ID), 0)
			if c.tec > 0 {
				c.tec--
			}
			c.emitCounters(end)
			c.updateState(end)
			if c.cfg.OnTransmit != nil {
				c.cfg.OnTransmit(end, f)
			}
			c.endAttempt(true)
			c.spliceTail()
			return
		}
	}
	// Exact fallback: the frame span through the batch machinery, the tail
	// bit by bit (ObserveRun's intermission handling assumes a quiescent
	// queue, which a chained window's pending next frame violates).
	frameLen := len(resolved) - IntermissionBits
	c.ObserveRun(now, resolved[:frameLen])
	for i := frameLen; i < len(resolved); i++ {
		c.Observe(now+bus.BitTime(i), resolved[i])
	}
}
