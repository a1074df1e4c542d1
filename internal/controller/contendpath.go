package controller

import (
	"michican/internal/bus"
	"michican/internal/can"
)

var _ bus.ContendCommitter = (*Controller)(nil)

// ContendBits implements bus.ContendCommitter. Three controller states
// publish a conditional stream:
//
//   - mid-frame transmitter: the rest of the serialized plan up to the ACK
//     slot, or past it up to the last EOF bit (planSpan). As the sole driver
//     the stream is unconditional; under contention it holds bit by bit as
//     long as the resolved level matches the driven one, which is exactly
//     the condition the bus's divergence clamp enforces — the first
//     overridden recessive (arbitration loss or bit error) is re-stepped
//     exactly;
//   - active error flag: the remaining dominant flag bits, unconditional by
//     construction (the flag ignores the wire entirely);
//   - pending SOF: the controller decided last bit to assert SOF
//     (driveNext is dominant), so the head frame's serialized plan from the
//     SOF through the CRC delimiter is its conditional stream — the frame it
//     will begin transmitting holds bit by bit as long as it keeps winning,
//     and the first overridden recessive is an arbitration loss (or stuff
//     error) re-stepped exactly, as mid-frame.
//
// Passive flags, delimiters, and queue-less idle commit nothing — they are
// recessive waits, covered by the passive side of the negotiation.
func (c *Controller) ContendBits(now bus.BitTime) ([]can.Level, bus.BitTime) {
	switch c.phase {
	case phaseFrame:
		return c.planSpan(now)
	case phaseActiveFlag:
		n := ActiveFlagBits - c.flagCount
		if n <= 0 {
			return nil, now
		}
		run := can.DominantRun(n)
		return run, now + bus.BitTime(len(run))
	case phaseIdle:
		if !c.pendingSOF {
			return nil, now
		}
		if _, p, ok := c.queue.head(); ok {
			run := p.bits[:p.ackIdx]
			return run, now + bus.BitTime(len(run))
		}
	}
	return nil, now
}

// planSpan returns a transmitter's committed span of its txPlan, whose
// entire wire stream is serialized up front. Two spans of the plan qualify:
//
//   - arbitration through the CRC delimiter (txIdx in [1, ackIdx));
//   - ACK delimiter through the last EOF bit (txIdx in (ackIdx, len)). The
//     trailer levels are unconditional — all recessive — so the final EOF bit
//     commits too; txSuccess (callbacks, mailbox pop, counter updates) then
//     fires inside the batch at the span's last bit, exactly as per-bit
//     stepping would, and the queue cannot be read again before the next
//     exact-stepped bit.
//
// The SOF (txIdx 0 never occurs between bits — beginFrame consumes it) and
// the ACK slot (its observed level feeds back into acked) stay on the exact
// path.
func (c *Controller) planSpan(now bus.BitTime) ([]can.Level, bus.BitTime) {
	if !c.transmitting || c.plan == nil {
		return nil, now
	}
	switch {
	case c.txIdx >= 1 && c.txIdx < c.plan.ackIdx:
		run := c.plan.bits[c.txIdx:c.plan.ackIdx]
		return run, now + bus.BitTime(len(run))
	case c.txIdx > c.plan.ackIdx && c.txIdx < len(c.plan.bits):
		run := c.plan.bits[c.txIdx:]
		return run, now + bus.BitTime(len(run))
	}
	return nil, now
}

// ContendFrameBit implements bus.ContendCommitter: the transmit-plan wire
// index for a mid-frame transmitter, 0 for a pending SOF, -1 for flag runs.
func (c *Controller) ContendFrameBit() int {
	if c.phase == phaseFrame && c.transmitting {
		return c.txIdx
	}
	if c.pendingSOF {
		return 0
	}
	return -1
}

// InFrame reports whether the controller is inside a frame or signalling an
// error — the phases whose drive decisions never consult the transmit queue.
// While it holds, an Enqueue can be deferred to any later bit of the phase
// without changing externally visible behaviour, which is what lets schedule
// wrappers (restbus.Replayer) process deadlines at batch boundaries instead
// of clamping every span at the next due bit.
func (c *Controller) InFrame() bool {
	switch c.phase {
	case phaseFrame, phaseActiveFlag, phasePassiveFlag, phaseErrorDelim:
		return true
	}
	return false
}

// contendScan answers passivity for a mid-frame receiver offered a contested
// span (frameBit < 0: the levels come from error flags or a counterattack
// pull, not from this frame's serialized plan — by construction such spans
// are dominant runs). The receive pipeline may hit a stuff error anywhere in
// them, so the scan walks a copy of the destuffer and accepts through the
// detection bit: the receiver drives recessive up to and including it, and
// its own error flag only reaches the wire on the following bit, which the
// clamp leaves to exact stepping.
func (c *Controller) contendScan(levels []can.Level) int {
	if c.rxTrailer != 0 || c.rxAwaitStuff || c.rxFSIdx >= 0 || (c.rxFDKnown && c.rxFD) {
		return 0 // trailer form checks / FD fixed-stuff region: exact-step
	}
	// Stay strictly inside the dynamically stuffed region, so the CRC check
	// and trailer transitions land on exact steps. While the header is still
	// being decoded, the classical DLC-0 length floors every layout the frame
	// can still turn out to have — provided no recessive bit is consumed,
	// since a recessive IDE/FDF would switch to extended or FD framing.
	stable := c.rxFDKnown && !c.rxFD && c.rxLayoutKnown && c.rxDLC >= 0
	regionEnd := can.UnstuffedLen(0)
	if stable {
		regionEnd = c.rxLayout.UnstuffedLen(c.rxDataLen)
	}
	budget := regionEnd - len(c.rxBits) - 1
	if budget <= 0 {
		return 0
	}
	if budget > len(levels) {
		budget = len(levels)
	}
	destuf := c.rxDestuf
	for i := 0; i < budget; i++ {
		if !stable && levels[i] != can.Dominant {
			return i
		}
		if _, err := destuf.Next(levels[i]); err != nil {
			return i + 1
		}
	}
	return budget
}

// errorSignalScan replays the passive-flag / error-delimiter counters over a
// span on copies, accepting through the delimiter-completion bit: the node
// drives recessive throughout, the EvErrorEnd transition fires within the
// prefix (ObserveRun replays it at its exact bit), and intermission — where
// the transmit queue starts mattering — begins on the following bit.
func (c *Controller) errorSignalScan(levels []can.Level) int {
	ph := c.phase
	flagCount, delimCount := c.flagCount, c.delimCount
	passiveLast, passiveBegun := c.passiveLast, c.passiveBegun
	for i, level := range levels {
		if ph == phasePassiveFlag {
			if passiveBegun && level == passiveLast {
				flagCount++
			} else {
				passiveLast, passiveBegun, flagCount = level, true, 1
			}
			if flagCount >= PassiveFlagBits {
				ph = phaseErrorDelim
				delimCount = 0
			}
			continue
		}
		if level == can.Dominant {
			delimCount = 0
			continue
		}
		delimCount++
		if delimCount >= ErrorDelimiterBits {
			return i + 1
		}
	}
	return len(levels)
}
