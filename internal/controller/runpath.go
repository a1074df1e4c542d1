package controller

import (
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/telemetry"
)

var _ bus.RunObserver = (*Controller)(nil)

// PassiveRun implements bus.RunObserver. The controller promises passivity
// over the proposed span when:
//
//   - it is a receiver in the same frame, bit-synchronized to the
//     transmitter (rxWire == frameBit). Committed streams only ever come
//     from a txPlan — a stuff-compliant serialization of a validated frame
//     with a correct CRC — so a synchronized receiver consuming that stream
//     can raise no stuff/form/CRC/bit error; frame completion (rxComplete,
//     OnReceive) can only fall on the span's own final bit, where ObserveRun
//     replays it at its exact bit time. The whole span is accepted in O(1);
//     the possible dominant ACK decision lands on driveNext at span end,
//     after the span's last bit, which keeps the promise.
//   - it is out of the frame (idle, intermission, suspend) and the span
//     starts at a frame's SOF (frameBit 0, dominant first level): it joins
//     as a bit-synchronized receiver at that SOF and the previous case
//     applies from bit 1 on — the whole span is accepted in O(1), even with
//     frames pending (a foreign SOF always wins the slot on the exact path
//     too, unless this node is asserting SOF itself, which pendingSOF /
//     driveNext pin);
//   - it is out of the frame with nothing to send: it accepts the leading
//     recessive prefix — a dominant bit would be a join-as-SOF event, left
//     to the exact path (or to a frameBit-0 span negotiated at it);
//   - it is bus-off: always passive; with auto-recovery the span is clamped
//     below the recovery-completion bit so the rejoin transition fires on an
//     exact step.
//
// Everything else — a pending dominant drive, error signalling, a desynced
// receiver — pins the span.
func (c *Controller) PassiveRun(now bus.BitTime, frameBit int, levels []can.Level) int {
	if c.driveNext == can.Dominant {
		return 0
	}
	switch c.phase {
	case phaseFrame:
		if c.transmitting {
			return 0
		}
		if frameBit >= 0 {
			if c.rxWire == frameBit {
				return len(levels)
			}
			return 0
		}
		return c.contendScan(levels)
	case phasePassiveFlag, phaseErrorDelim:
		return c.errorSignalScan(levels)
	case phaseIdle, phaseIntermission, phaseSuspend:
		if frameBit == 0 && len(levels) > 0 && levels[0] == can.Dominant && !c.pendingSOF {
			return len(levels)
		}
		if c.queue.len() > 0 || c.pendingSOF {
			return 0
		}
		return leadingRecessive(levels)
	case phaseBusOff:
		if !c.cfg.AutoRecover {
			return len(levels)
		}
		remaining := int64(RecoverySequences-c.recoverSeqs)*RecoveryIdleBits - int64(c.recoverRun)
		if remaining <= 1 {
			return 0
		}
		if int64(len(levels)) < remaining {
			return len(levels)
		}
		return int(remaining - 1)
	}
	return 0
}

// ObserveRun implements bus.RunObserver: consume a span of resolved levels,
// leaving the controller in exactly the state len(levels) per-bit Observe
// calls would have produced.
func (c *Controller) ObserveRun(from bus.BitTime, levels []can.Level) {
	switch c.phase {
	case phaseFrame:
		c.frameRun(from, levels)
	case phaseActiveFlag, phasePassiveFlag, phaseErrorDelim:
		// Error-signal spans are short (≤ 14 bits) and dense with counter
		// transitions — flag completion, delimiter restart, EvErrorEnd — so
		// they replay through the exact per-bit handler. The span clamps
		// (ContendBits length, errorSignalScan) guarantee the replay never
		// runs past the delimiter-completion bit into intermission.
		for i, level := range levels {
			c.Observe(from+bus.BitTime(i), level)
		}
	case phaseBusOff:
		c.trackIdleRun(levels)
		c.driveNext = can.Recessive
		if c.cfg.AutoRecover {
			// PassiveRun clamped the span below recovery completion, so the
			// counters can only accumulate here — no transition check.
			for _, level := range levels {
				if level == can.Recessive {
					c.recoverRun++
					if c.recoverRun >= RecoveryIdleBits {
						c.recoverSeqs++
						c.recoverRun = 0
					}
				} else {
					c.recoverRun = 0
				}
			}
		}
	default:
		if len(levels) > 0 && levels[0] == can.Dominant {
			// A frameBit-0 span: bit 0 is the SOF — of our own pending frame
			// (pendingSOF, published through ContendBits) or of a foreign
			// frame we join as receiver — and the rest of the span is
			// mid-frame, exactly as observeIdle/-Intermission/-Suspend would
			// process it bit by bit.
			c.idleRun = 0
			c.driveNext = can.Recessive
			c.beginFrame(from, levels[0], c.pendingSOF)
			c.pendingSOF = false
			if len(levels) > 1 {
				c.frameRun(from+1, levels[1:])
			}
			return
		}
		// Idle/intermission/suspend spans are all-recessive by this
		// controller's own PassiveRun answer (the bus clamps to it), which is
		// exactly the SkipIdle contract.
		c.SkipIdle(from, from+bus.BitTime(len(levels)))
	}
}

// frameRun advances a mid-frame controller over a span of resolved levels.
// For a transmitter the levels are its own committed bits, so bit
// monitoring reduces to advancing txIdx, and the receive pipeline stays
// deferred (see rxProcess) — the whole span is O(1). A receiver runs the
// full pipeline, as in per-bit observeFrame.
func (c *Controller) frameRun(from bus.BitTime, levels []can.Level) {
	c.trackIdleRun(levels)
	if c.transmitting {
		before := c.txIdx
		c.txIdx += len(levels)
		if before < c.plan.arbEnd && c.txIdx >= c.plan.arbEnd {
			// The span crossed the end of arbitration: the win landed at the
			// bit where txIdx first reached arbEnd, the same instant the
			// exact path emits at.
			c.tel.Emit(int64(from)+int64(c.plan.arbEnd-1-before),
				telemetry.EvArbWon, int64(c.txFrame.ID), 0)
		}
		if c.txIdx >= len(c.plan.bits) {
			// The span reached the final EOF bit: the transmission completed
			// at the span's last bit time, with the same callbacks and
			// counter updates the exact path runs there.
			c.driveNext = can.Recessive
			c.txSuccess(from + bus.BitTime(len(levels)-1))
			return
		}
		c.driveNext = c.plan.bits[c.txIdx]
		return
	}
	c.rxRun(from, levels)
}

// trackIdleRun replays Observe's per-bit idle-run accounting for a span.
func (c *Controller) trackIdleRun(levels []can.Level) {
	k := 0
	for i := len(levels) - 1; i >= 0 && levels[i] == can.Recessive; i-- {
		k++
	}
	if k == len(levels) {
		c.idleRun += k
	} else {
		c.idleRun = k
	}
}

// leadingRecessive returns the length of the leading recessive prefix.
func leadingRecessive(levels []can.Level) int {
	for i, level := range levels {
		if level != can.Recessive {
			return i
		}
	}
	return len(levels)
}

// rxRun feeds a span of resolved levels through the receive pipeline. The
// stuffed region of a classical frame after the DLC is known — the bulk of
// every span — runs through a tight inline loop; everything else falls back
// to the per-bit functions. Should an error path ever leave the frame phase
// mid-span (impossible for a compliant committed stream, but cheap to
// guard), the remainder replays through exact per-bit Observe.
func (c *Controller) rxRun(from bus.BitTime, levels []can.Level) {
	for i := 0; i < len(levels); {
		if c.phase != phaseFrame {
			for ; i < len(levels); i++ {
				c.Observe(from+bus.BitTime(i), levels[i])
			}
			return
		}
		c.driveNext = can.Recessive
		if c.rxTrailer == 0 && c.rxFDKnown && !c.rxFD && c.rxDLC >= 0 && !c.rxAwaitStuff && c.rxFSIdx < 0 {
			i += c.rxBulkClassical(from+bus.BitTime(i), levels[i:])
			continue
		}
		c.rxProcess(from+bus.BitTime(i), levels[i])
		i++
	}
}

// rxBulkClassical consumes wire bits of a classical frame's stuffed region
// once the DLC is known: destuff, CRC-15, and bit collection in one loop,
// with no per-bit dispatch. It returns the number of wire bits consumed,
// stopping at the end of the stuffed region or of the span, or at a stuff
// error (which cannot occur for a committed stream but keeps the routine a
// faithful drop-in for rxStuffedBit).
func (c *Controller) rxBulkClassical(from bus.BitTime, levels []can.Level) int {
	unstuffedLen := c.rxLayout.UnstuffedLen(c.rxDataLen)
	dataEnd := unstuffedLen - can.CRCBits
	consumed := 0
	for consumed < len(levels) {
		level := levels[consumed]
		consumed++
		c.rxWire++
		c.rxLastWire = level
		payload, err := c.rxDestuf.Next(level)
		if err != nil {
			c.frameError(from+bus.BitTime(consumed-1), StuffError)
			return consumed
		}
		if !payload {
			c.rxDynStuff++
			continue
		}
		c.rxBits = append(c.rxBits, level)
		n := len(c.rxBits)
		if n <= dataEnd {
			c.rxCRC.Update(level)
		}
		if n == unstuffedLen {
			got := uint16(can.DecodeField(c.rxBits, dataEnd, can.CRCBits))
			c.rxCRCOK = got == c.rxCRC.Sum()
			if c.rxDestuf.Expecting() {
				c.rxAwaitStuff = true
			} else {
				c.rxTrailer = 1
			}
			return consumed
		}
	}
	return consumed
}
