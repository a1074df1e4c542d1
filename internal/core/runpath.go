package core

import (
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/fsm"
	"michican/internal/mcu"
	"michican/internal/telemetry"
)

var (
	_ bus.RunObserver      = (*Defense)(nil)
	_ bus.RunObserver      = (*ECU)(nil)
	_ bus.ContendCommitter = (*ECU)(nil)
)

// PassiveRun implements bus.RunObserver: a pure scan of the proposed span
// through Algorithm 1's per-bit logic, answering the longest prefix over
// which the defense keeps its TX pin released. A counterattack launch at span
// bit i still accepts i+1 bits — the pull only reaches the wire on the bit
// after the strike decision — and the next negotiation then sees the mux
// driving dominant and pins. The scan walks value copies (Destuffer,
// fsm.Cursor) so the real state is untouched if the bus discards the span.
func (d *Defense) PassiveRun(_ bus.BitTime, frameBit int, levels []can.Level) int {
	return d.passiveScan(frameBit, levels, d.selfNow())
}

// selfNow answers the SelfTransmitting callback (false when unset).
func (d *Defense) selfNow() bool {
	return d.cfg.SelfTransmitting != nil && d.cfg.SelfTransmitting()
}

// passiveScan is PassiveRun with the SelfTransmitting answer supplied by the
// caller. The distinction matters for frameBit-0 spans committed by the host
// ECU's own controller (a pending SOF): at negotiation time the controller is
// not yet transmitting, so the live callback answers false, but the frame the
// span carries is the host's own — the strike decision inside the span must
// be scanned with self true, as the exact path would decide it mid-frame.
func (d *Defense) passiveScan(frameBit int, levels []can.Level, self bool) int {
	if d.mux.DriveLevel() == can.Dominant {
		return 0
	}
	if !d.armed {
		return len(levels)
	}
	switch {
	case d.inFrame:
		return d.frameScan(levels, self)
	case frameBit == 0 && d.cntSOF >= can.IdleForSOF && levels[0] == can.Dominant:
		return d.joinScan(levels, self)
	}
	return idleScanLevels(levels, d.cntSOF)
}

// frameScan replays onFrameBit over the span from the defense's live state,
// without mutating it.
func (d *Defense) frameScan(levels []can.Level, self bool) int {
	return d.frameScanFrom(d.destuf, d.cfg.FSM.Cursor(),
		d.idBits, d.postID, d.extFlag, d.attackFlag, self, levels)
}

// joinScan answers passivity for a span that begins at a frame's SOF while
// the defense is hunting with cnt_sof at or past the threshold: bit 0
// hard-synchronizes (always passive — the defense never drives at SOF), and
// the rest replays Algorithm 1 from the post-SOF baseline — stuff tracker
// seeded with the dominant SOF bit, FSM at its root, all flags clear —
// without mutating anything.
func (d *Defense) joinScan(levels []can.Level, self bool) int {
	var destuf can.Destuffer
	destuf.Reset()
	destuf.Next(can.Dominant)
	return 1 + d.frameScanFrom(destuf, d.cfg.FSM.RootCursor(),
		0, 0, false, false, self, levels[1:])
}

// frameScanFrom replays onFrameBit over the span from an explicit in-frame
// entry state, mutating only the copies it was handed.
func (d *Defense) frameScanFrom(destuf can.Destuffer, cur fsm.Cursor,
	idBits, postID int, extFlag, attackFlag, self bool, levels []can.Level) int {
	for i, level := range levels {
		payload, err := destuf.Next(level)
		if err != nil {
			// Six equal levels: the frame is abandoned and SOF hunting
			// resumes with a zeroed counter.
			return i + 1 + idleScanLevels(levels[i+1:], 0)
		}
		if !payload {
			continue
		}
		if idBits < can.IDBits {
			idBits++
			if !attackFlag && cur.Decided() == fsm.Undecided {
				if cur.Step(level) == fsm.Malicious {
					attackFlag = true
				}
			}
			continue
		}
		postID++
		if !d.cfg.ExtendedAware {
			return i + 1 + d.scanStrike(attackFlag, self, levels[i+1:])
		}
		switch {
		case postID == 1:
			// RTR/SRR: waiting for the IDE bit.
		case postID == 2:
			if level == can.Dominant {
				return i + 1 + d.scanStrike(attackFlag, self, levels[i+1:])
			}
			extFlag = true
			if !attackFlag {
				// Benign extended frame: endFrame, back to SOF hunting.
				return i + 1 + idleScanLevels(levels[i+1:], 0)
			}
		case extFlag && postID == 2+can.ExtLowBits+1:
			return i + 1 + d.scanStrike(attackFlag, self, levels[i+1:])
		}
	}
	return len(levels)
}

// scanStrike resolves the strike point in a pure scan: rest holds the span
// bits after the strike bit; the return value is how many of them stay
// passive.
func (d *Defense) scanStrike(attackFlag, self bool, rest []can.Level) int {
	if attackFlag && d.cfg.PreventionEnabled && !self {
		return 0 // the pull reaches the wire on the next bit
	}
	// Benign, detection-only, or own transmission: endFrame, SOF hunting.
	return idleScanLevels(rest, 0)
}

// idleScanLevels counts the prefix an SOF-hunting defense consumes without
// synchronizing to a frame: it stops at a dominant bit preceded by >= 11
// recessives (a true SOF — left to the exact path, or to a fresh span
// negotiated after it). Committed frame spans contain no such bit, so this
// normally accepts everything.
func idleScanLevels(levels []can.Level, run int) int {
	for i, level := range levels {
		if level == can.Dominant {
			if run >= can.IdleForSOF {
				return i
			}
			run = 0
		} else {
			run++
		}
	}
	return len(levels)
}

// ObserveRun implements bus.RunObserver. In-frame bits advance through a
// batched walk with per-class meter folding — the defense leaves the frame
// within ~20 bits of SOF (strike point or benign verdict), so this stays a
// short prefix — and the out-of-frame remainder is accounted in O(1) per
// segment, with the meter charged for exactly the idle invocations
// Algorithm 1 would have run.
func (d *Defense) ObserveRun(from bus.BitTime, levels []can.Level) {
	if !d.armed {
		d.mux.LatchRX(levels[len(levels)-1])
		return
	}
	// Every delivered span is clamped to this defense's own PassiveRun answer
	// (via the bus negotiation, or via the commitment clamps on the
	// committing ECU), so the only bit that can synchronize as SOF is the
	// span's first (a frameBit-0 span): it replays through the exact idle
	// handler — same invocation charges, hard-synchronizing when cnt_sof is
	// at threshold — and the in-frame walk takes over from bit 1. Once the
	// defense is (or falls) out of the frame, the remainder is one SOF-free
	// idle batch.
	i := 0
	if !d.inFrame && levels[0] == can.Dominant {
		d.meter.Charge(mcu.OpISREnterExit)
		d.meter.Charge(mcu.OpReadRX)
		d.onIdleBit(from, levels[0])
		d.meter.EndInvocationAs(false)
		d.mux.LatchRX(levels[0])
		i = 1
	}
	for i < len(levels) && d.inFrame {
		i += d.frameRunBatch(from+bus.BitTime(i), levels[i:])
	}
	if i < len(levels) {
		d.idleBatch(levels[i:])
	}
}

// frameRunBatch consumes a span prefix while in-frame, mutating state
// exactly as per-bit Observe would. Bits with uniform handler cost (stuff
// tracking, ID stepping, post-ID waits, counterattack ticks) fold their
// meter charges per class via ChargeInvocationsAs; the rare decision bit —
// where decideAtStrikePoint runs and may charge mid-invocation — closes its
// invocation individually, reproducing the per-bit accounting bit for bit.
// Returns the number of bits consumed (all of levels, or through the bit on
// which the defense left the frame).
func (d *Defense) frameRunBatch(from bus.BitTime, levels []can.Level) int {
	var trackN, idStepN, idStoreN, caN int64
	i := 0
	for i < len(levels) && d.inFrame {
		level := levels[i]
		i++
		d.cnt++
		if d.counterattacking {
			caN++
			d.pullRemaining--
			if d.pullRemaining <= 0 {
				d.tel.Emit(int64(from)+int64(i-1), telemetry.EvPullEnd, int64(d.pullWidth), 0)
				d.mux.DisableTX()
				d.endFrame()
				break
			}
			d.mux.PullLow()
			continue
		}
		payload, err := d.destuf.Next(level)
		if err != nil {
			trackN++
			d.stats.AbortedFrames++
			d.endFrame()
			break
		}
		if !payload {
			trackN++
			continue
		}
		if d.idBits < can.IDBits {
			d.idBits++
			if !d.attackFlag && d.cfg.FSM.Decided() == fsm.Undecided {
				idStepN++
				if d.cfg.FSM.Step(level) == fsm.Malicious {
					d.attackFlag = true
					d.detectedAt = d.idBits
				}
			} else {
				idStoreN++
			}
			continue
		}
		d.postID++
		if !d.cfg.ExtendedAware {
			d.strikeBit(from + bus.BitTime(i-1))
			continue
		}
		switch {
		case d.postID == 1:
			trackN++
		case d.postID == 2:
			if level == can.Dominant {
				d.strikeBit(from + bus.BitTime(i-1))
				continue
			}
			trackN++
			d.extFlag = true
			if !d.attackFlag {
				d.endFrame()
			}
		case d.extFlag && d.postID == 2+can.ExtLowBits+1:
			d.strikeBit(from + bus.BitTime(i-1))
		default:
			trackN++
		}
	}
	base := d.meter.OpCost(mcu.OpISREnterExit) + d.meter.OpCost(mcu.OpReadRX)
	track := base + d.meter.OpCost(mcu.OpStuffTrack)
	d.meter.ChargeInvocationsAs(trackN, track, true)
	store := track + d.meter.OpCost(mcu.OpFrameStore)
	d.meter.ChargeInvocationsAs(idStoreN, store, true)
	d.meter.ChargeInvocationsAs(idStepN, store+d.meter.FSMStepCostOf(d.cfg.FSM.Size()), true)
	d.meter.ChargeInvocationsAs(caN, base+d.meter.OpCost(mcu.OpCounterattack), true)
	if i > 0 {
		d.mux.LatchRX(levels[i-1])
	}
	return i
}

// strikeBit runs the strike-point decision for one bit with exact per-bit
// meter accounting (the decision may charge extra operations into the same
// handler invocation).
func (d *Defense) strikeBit(t bus.BitTime) {
	d.meter.Charge(mcu.OpISREnterExit)
	d.meter.Charge(mcu.OpReadRX)
	d.meter.Charge(mcu.OpStuffTrack)
	d.decideAtStrikePoint(t)
	d.meter.EndInvocationAs(true)
}

// idleBatch accounts a run of out-of-frame bits containing no SOF: the RX
// latch ends at the last level, cnt_sof becomes the trailing recessive run
// (accumulating if the whole segment is recessive), and the meter is charged
// for n idle invocations.
func (d *Defense) idleBatch(seg []can.Level) {
	k := 0
	for i := len(seg) - 1; i >= 0 && seg[i] == can.Recessive; i-- {
		k++
	}
	if k == len(seg) {
		d.cntSOF += k
	} else {
		d.cntSOF = k
	}
	d.mux.LatchRX(seg[len(seg)-1])
	d.meter.ChargeIdleInvocations(int64(len(seg)), mcu.OpISREnterExit, mcu.OpReadRX, mcu.OpIdleTrack)
}

// contendBits returns the defense's committed stream for the contested-window
// path: the remainder of an in-progress counterattack pull, an unconditional
// dominant run (the pull ignores the wire by design — that is the attack
// suppression mechanism). The run's length is exactly pullRemaining, because
// frameRunBatch/onFrameBit decrement it per observed bit and release the pin
// when it reaches zero.
func (d *Defense) contendBits(now bus.BitTime) ([]can.Level, bus.BitTime) {
	if !d.counterattacking || d.pullRemaining <= 0 {
		return nil, now
	}
	run := can.DominantRun(d.pullRemaining)
	return run, now + bus.BitTime(len(run))
}

// ContendBits implements bus.ContendCommitter for a defended ECU, combining
// the two halves that share this attachment point:
//
//   - controller commitment only: clamped by the defense's own passivity
//     over the stream. The bus never queries PassiveRun on a committing
//     node, so the defense sharing this attachment point must bound the span
//     here — it could otherwise decide to pull CAN_TX low mid-span (it never
//     does for the host's own legitimate frames, which SelfTransmitting
//     suppresses, but the clamp keeps that reasoning local);
//   - defense pull only: the dominant run, clamped by the controller's
//     passivity under it (contendScan — the receiver typically stuff-errors
//     partway through the pull, and that detection bit bounds the span);
//   - both (the controller signalling an error while the pull continues):
//     clamped at the first bit where the halves disagree — there the wire
//     would override the controller's recessive, and that bit-error bit must
//     run exactly.
//
// In every case the returned stream equals both halves' driven levels over
// its length, so the ECU behaves as a single committer.
func (e *ECU) ContendBits(now bus.BitTime) ([]can.Level, bus.BitTime) {
	cb, ch := e.Controller.ContendBits(now)
	if ch <= now {
		cb = nil
	}
	if e.Defense == nil {
		if len(cb) == 0 {
			return nil, now
		}
		return cb, now + bus.BitTime(len(cb))
	}
	db, dh := e.Defense.contendBits(now)
	if dh <= now {
		db = nil
	}
	switch {
	case len(cb) == 0 && len(db) == 0:
		return nil, now
	case len(db) == 0:
		// A plan-backed stream (frameBit >= 0) is always the host
		// controller's own frame — including a pending-SOF commitment, where
		// the live SelfTransmitting answer is still false — so the defense
		// scans it with self true; flag runs (frameBit -1) keep the live
		// answer, matching the exact path's mid-flag strike decisions.
		fb := e.Controller.ContendFrameBit()
		k := e.Defense.passiveScan(fb, cb, fb >= 0 || e.Defense.selfNow())
		if k <= 0 {
			return nil, now
		}
		cb = cb[:k]
		return cb, now + bus.BitTime(k)
	case len(cb) == 0:
		k := e.Controller.PassiveRun(now, -1, db)
		if k <= 0 {
			return nil, now
		}
		db = db[:k]
		return db, now + bus.BitTime(k)
	}
	n := len(cb)
	if len(db) < n {
		n = len(db)
	}
	for i := 0; i < n; i++ {
		if cb[i] != db[i] {
			n = i
			break
		}
	}
	if n == 0 {
		return nil, now
	}
	return cb[:n], now + bus.BitTime(n)
}

// ContendFrameBit implements bus.ContendCommitter: the controller's plan
// position when its stream is in play, -1 when the commitment is the
// defense's pull alone (the controller then reports -1 itself, since it is
// not a mid-frame transmitter).
func (e *ECU) ContendFrameBit() int { return e.Controller.ContendFrameBit() }

// PassiveRun implements bus.RunObserver: both halves of the ECU must stay
// passive.
func (e *ECU) PassiveRun(now bus.BitTime, frameBit int, levels []can.Level) int {
	n := e.Controller.PassiveRun(now, frameBit, levels)
	if n == 0 || e.Defense == nil {
		return n
	}
	if k := e.Defense.PassiveRun(now, frameBit, levels); k < n {
		n = k
	}
	return n
}

// ObserveRun implements bus.RunObserver, preserving per-bit delivery order
// across the halves: the two only interact through the wire and the
// SelfTransmitting callback, and the controller's transmitting flag is
// span-invariant, so controller-then-defense batching matches interleaving.
func (e *ECU) ObserveRun(from bus.BitTime, levels []can.Level) {
	e.Controller.ObserveRun(from, levels)
	if e.Defense != nil {
		e.Defense.ObserveRun(from, levels)
	}
}
