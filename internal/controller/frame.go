package controller

import (
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/telemetry"
)

// beginFrame enters the on-frame phase at the SOF bit. contender reports
// whether this controller asserted the SOF itself (it decided to start a
// transmission during the previous bit).
func (c *Controller) beginFrame(t bus.BitTime, level can.Level, contender bool) {
	c.phase = phaseFrame
	c.resetRx()

	c.transmitting = false
	c.plan = nil
	if contender {
		if f, p, ok := c.queue.head(); ok {
			c.plan, c.txFrame = p, f
			c.txIdx = 0
			c.acked = false
			c.transmitting = true
			c.stats.TxAttempts++
			c.tel.Emit(int64(t), telemetry.EvTxStart, int64(f.ID), 0)
		}
	}
	c.pendingPlan = nil
	// Process the SOF bit through both paths.
	c.observeFrame(t, level)
}

// resetRx clears the receive pipeline for a new frame.
func (c *Controller) resetRx() {
	c.rxDestuf.Reset()
	c.rxBits = c.rxBits[:0]
	c.rxCRC.Reset()
	c.rxDLC = -1
	c.rxCRCOK = false
	c.rxTrailer = 0
	c.rxLayout = can.Layout{}
	c.rxLayoutKnown = false
	c.rxRemote = false
	c.rxDataLen = -1
	c.rxAwaitStuff = false
	c.rxFD = false
	c.rxFDKnown = false
	c.rxFDCRC17.Reset()
	c.rxFDCRC21.Reset()
	c.rxDynStuff = 0
	c.rxFSIdx = -1
	c.rxFSBNext = false
	c.rxFDCRCBits = c.rxFDCRCBits[:0]
	c.rxLastWire = can.Recessive
	c.rxWire = 0
}

// observeFrame advances the frame state machine by one observed bit. The
// transmitter path (bit monitoring against the serialized plan) runs first;
// the receive pipeline runs for every node so that a transmitter losing
// arbitration continues seamlessly as a receiver.
func (c *Controller) observeFrame(t bus.BitTime, level can.Level) {
	if c.transmitting {
		if c.monitorTxBit(t, level) {
			return // error raised or transmission completed
		}
	}
	c.rxProcess(t, level)
}

// monitorTxBit compares the observed level against the transmitted bit. It
// returns true when the frame attempt ended (error or success) and frame
// processing for this bit must stop.
func (c *Controller) monitorTxBit(t bus.BitTime, level can.Level) bool {
	expected := c.plan.bits[c.txIdx]
	switch {
	case c.txIdx < c.plan.arbEnd && expected == can.Recessive && level == can.Dominant:
		if c.plan.isStuff[c.txIdx] {
			// A competing arbitration winner would have stuffed here too;
			// an overwritten recessive stuff bit is a stuff error (the
			// paper's best-case counterattack trigger at the RTR bit).
			c.txError(t, StuffError)
			return true
		}
		// Lost arbitration to a lower ID: hand over to the receive pipeline,
		// catching it up on the bits deferred while we were the transmitter.
		c.transmitting = false
		c.tel.Emit(int64(t), telemetry.EvArbLost, int64(c.txIdx), 0)
		c.flushDeferredRx(t)
		c.stats.ArbitrationLosses++
		return false
	case c.txIdx == c.plan.ackIdx:
		if level == can.Dominant {
			c.acked = true
		} else {
			c.txError(t, AckError)
			return true
		}
	case level != expected:
		if c.plan.isStuff[c.txIdx] {
			c.txError(t, StuffError)
		} else {
			c.txError(t, BitError)
		}
		return true
	}
	c.txIdx++
	if c.txIdx == c.plan.arbEnd {
		c.tel.Emit(int64(t), telemetry.EvArbWon, int64(c.txFrame.ID), 0)
	}
	if c.txIdx >= len(c.plan.bits) {
		c.txSuccess(t)
		return true
	}
	c.driveNext = c.plan.bits[c.txIdx]
	return false
}

// txSuccess finalizes an acknowledged, error-free transmission.
func (c *Controller) txSuccess(t bus.BitTime) {
	f := c.txFrame
	c.queue.remove(f)
	c.stats.TxSuccess++
	c.tel.Emit(int64(t), telemetry.EvTxSuccess, int64(f.ID), 0)
	if c.tec > 0 {
		c.tec--
	}
	c.emitCounters(t)
	c.updateState(t)
	if c.cfg.OnTransmit != nil {
		c.cfg.OnTransmit(t, f)
	}
	c.endAttempt(true)
}

// rxProcess advances the receive pipeline by one observed bit.
//
// A transmitter defers its receive pipeline entirely (rxWire stays behind
// txIdx): the pipeline is externally inert while transmitting — the ACK
// decision, the CRC-error check, and rxComplete are all receiver-only, and
// any observed/expected mismatch raises a tx error in monitorTxBit before
// this function runs — so the work is dropped unperformed at frame end. The
// one path back to live reception, arbitration loss, replays the deferred
// bits from the plan (flushDeferredRx), which equals the resolved wire
// stream bit-for-bit over that prefix.
func (c *Controller) rxProcess(t bus.BitTime, level can.Level) {
	if c.transmitting && c.rxWire < c.txIdx {
		return
	}
	c.rxWire++
	if c.rxTrailer == 0 {
		c.rxStuffedBit(t, level)
		return
	}
	switch {
	case c.rxTrailer == 1: // CRC delimiter
		if level != can.Recessive {
			c.frameError(t, FormError)
			return
		}
		// Decide the ACK: receivers with a valid CRC drive the next bit
		// (the ACK slot) dominant. Listen-only controllers never drive.
		if !c.transmitting && c.rxCRCOK && !c.cfg.ListenOnly {
			c.driveNext = can.Dominant
		}
	case c.rxTrailer == 2: // ACK slot — any level is legal here
	case c.rxTrailer == 3: // ACK delimiter
		if !c.transmitting && !c.rxCRCOK {
			c.rxError(t, CRCError)
			return
		}
		if level != can.Recessive {
			c.frameError(t, FormError)
			return
		}
	default: // EOF bits
		if level != can.Recessive {
			c.frameError(t, FormError)
			return
		}
		if c.rxTrailer == 3+can.EOFBits {
			c.rxComplete(t)
			return
		}
	}
	c.rxTrailer++
}

// rxStuffedBit consumes one wire bit of the stuffed region (SOF through the
// last CRC bit).
func (c *Controller) rxStuffedBit(t bus.BitTime, level can.Level) {
	if c.rxFD && c.rxFSIdx >= 0 {
		c.rxFDFixedStuffBit(t, level)
		return
	}
	// FD CRCs run over every wire bit of the dynamic region (FD covers
	// stuff bits); skipped once the FDF bit has revealed a classical frame,
	// which is protected by CRC-15 only.
	if !c.rxFDKnown || c.rxFD {
		c.rxFDCRC17.Update(level)
		c.rxFDCRC21.Update(level)
	}
	c.rxLastWire = level
	if c.rxAwaitStuff {
		// The stuffed region can end with a pending stuff bit (after the
		// final CRC bit for classical frames, after the final data bit for
		// FD); consume it before the next region.
		if _, err := c.rxDestuf.Next(level); err != nil {
			c.frameError(t, StuffError)
			return
		}
		c.rxAwaitStuff = false
		if c.rxFD {
			c.rxDynStuff++
			c.rxFSIdx = 0
			c.rxFSBNext = true
			return
		}
		c.rxTrailer = 1
		return
	}
	payload, err := c.rxDestuf.Next(level)
	if err != nil {
		c.frameError(t, StuffError)
		return
	}
	if !payload {
		c.rxDynStuff++
		return
	}
	c.rxBits = append(c.rxBits, level)
	n := len(c.rxBits)
	if !c.rxLayoutKnown {
		// Everything through the IDE bit is CRC-protected in both formats.
		c.rxCRC.Update(level)
		if n == can.PosIDE+1 {
			// The IDE bit discriminates the formats: dominant = base (CAN
			// 2.0A), recessive = extended (CAN 2.0B).
			c.rxLayout = can.Layout{Extended: level == can.Recessive}
			c.rxLayoutKnown = true
		}
		return
	}
	if !c.rxFDKnown {
		// The FDF bit (position 14 base / 33 extended) discriminates FD
		// from classical: recessive = FD.
		c.rxCRC.Update(level)
		fdfPos := can.PosFDF
		if c.rxLayout.Extended {
			fdfPos = can.PosFDFExt
		}
		if n == fdfPos+1 {
			c.rxFD = level == can.Recessive
			c.rxFDKnown = true
		}
		return
	}
	if c.rxFD {
		c.rxFDDynamicBit(t, level, n)
		return
	}
	if c.rxDLC < 0 {
		c.rxCRC.Update(level)
		if n == c.rxLayout.DLCStart()+can.DLCBits {
			dlc := can.DecodeField(c.rxBits, c.rxLayout.DLCStart(), can.DLCBits)
			if dlc > can.MaxDataLen {
				dlc = can.MaxDataLen // DLC 9..15 means 8 data bytes
			}
			c.rxDLC = dlc
			// A recessive RTR marks a remote frame: the DLC carries the
			// requested length but no data field follows.
			rtrPos := can.PosRTR
			if c.rxLayout.Extended {
				rtrPos = can.PosRTRExt
			}
			c.rxRemote = c.rxBits[rtrPos] == can.Recessive
			c.rxDataLen = dlc
			if c.rxRemote {
				c.rxDataLen = 0
			}
		}
		return
	}
	dataEnd := c.rxLayout.UnstuffedLen(c.rxDataLen) - can.CRCBits
	if n <= dataEnd {
		c.rxCRC.Update(level)
	}
	if n == c.rxLayout.UnstuffedLen(c.rxDataLen) {
		got := uint16(can.DecodeField(c.rxBits, dataEnd, can.CRCBits))
		c.rxCRCOK = got == c.rxCRC.Sum()
		if c.rxDestuf.Expecting() {
			c.rxAwaitStuff = true
		} else {
			c.rxTrailer = 1
		}
	}
}

// flushDeferredRx catches the receive pipeline up on the wire bits deferred
// while this controller was the transmitter. Deferred bits are replayed from
// the plan: over the deferred prefix every resolved level matched the
// transmitted bit (any mismatch would have ended the attempt before the
// deferral grew), so the replay is exact. Call with transmitting already
// false — rxProcess skips deferred transmitters.
func (c *Controller) flushDeferredRx(t bus.BitTime) {
	n := c.txIdx
	for c.rxWire < n && c.phase == phaseFrame {
		c.rxProcess(t, c.plan.bits[c.rxWire])
	}
}

// rxComplete finalizes the reception of a frame after the last EOF bit.
func (c *Controller) rxComplete(t bus.BitTime) {
	if !c.transmitting {
		c.stats.RxSuccess++
		if c.rec > PassiveThreshold {
			c.rec = PassiveThreshold // successful reception re-arms the node
		} else if c.rec > 0 {
			c.rec--
		}
		c.emitCounters(t)
		c.updateState(t)
		if c.cfg.OnReceive != nil {
			c.cfg.OnReceive(t, c.decodeRx())
		}
	}
	c.endAttempt(false)
}

// decodeRx materializes the received frame from the unstuffed payload bits.
func (c *Controller) decodeRx() can.Frame {
	f := can.Frame{ID: c.rxLayout.DecodeID(c.rxBits), Extended: c.rxLayout.Extended}
	if c.rxFD {
		dataStart, esiPos := can.PosDataStartFD, can.PosESI
		if c.rxLayout.Extended {
			dataStart, esiPos = can.PosDataStartFDExt, can.PosFDFExt+3
		}
		f.FD = true
		f.ESIPassive = c.rxBits[esiPos] == can.Recessive
		if c.rxDataLen > 0 {
			f.Data = make([]byte, c.rxDataLen)
			for i := 0; i < c.rxDataLen; i++ {
				f.Data[i] = byte(can.DecodeField(c.rxBits, dataStart+8*i, 8))
			}
		}
		return f
	}
	if c.rxRemote {
		f.Remote = true
		f.RequestLen = c.rxDLC
		return f
	}
	if c.rxDLC > 0 {
		f.Data = make([]byte, c.rxDLC)
		for i := 0; i < c.rxDLC; i++ {
			f.Data[i] = byte(can.DecodeField(c.rxBits, c.rxLayout.DataStart()+8*i, 8))
		}
	}
	return f
}

// endAttempt closes a frame attempt (successful or destroyed by an error
// frame) and enters intermission. wasOurs records whether this controller
// was the frame's transmitter, which feeds the suspend-transmission rule.
func (c *Controller) endAttempt(wasOurs bool) {
	if wasOurs {
		c.framesSinceTx = 0
	} else if c.framesSinceTx < 1<<30 {
		c.framesSinceTx++
	}
	c.transmitting = false
	c.plan = nil
	c.resetRx()
	c.phase = phaseIntermission
	c.interCount = 0
}

// rxFDDynamicBit handles a destuffed payload bit of an FD frame's dynamic
// region: DLC decoding via the FD table and the switch to the fixed-stuff
// region after the last data bit.
func (c *Controller) rxFDDynamicBit(t bus.BitTime, level can.Level, n int) {
	dlcStart, dataStart := can.PosDLCStartFD, can.PosDataStartFD
	if c.rxLayout.Extended {
		dlcStart, dataStart = can.PosDLCStartFDExt, can.PosDataStartFDExt
	}
	if c.rxDLC < 0 {
		if n != dlcStart+can.DLCBits {
			return
		}
		c.rxDLC = can.DecodeField(c.rxBits, dlcStart, can.DLCBits)
		c.rxDataLen = can.FDLenFromDLC(c.rxDLC)
	}
	if c.rxDataLen >= 0 && n == dataStart+8*c.rxDataLen {
		// Dynamic region complete; a pending dynamic stuff bit may still
		// follow before the fixed-stuff region.
		if c.rxDestuf.Expecting() {
			c.rxAwaitStuff = true
		} else {
			c.rxFSIdx = 0
			c.rxFSBNext = true
		}
	}
}

// rxFDFixedStuffBit consumes one wire bit of the FD fixed-stuff region: the
// stuff-count field and the CRC-17/21 sequence, each 4-bit group preceded by
// a fixed stuff bit that must invert its predecessor.
func (c *Controller) rxFDFixedStuffBit(t bus.BitTime, level can.Level) {
	prev := c.rxLastWire
	c.rxLastWire = level
	crcBits := 17
	if c.rxDataLen > 16 {
		crcBits = 21
	}
	if c.rxFSBNext {
		if level == prev {
			c.frameError(t, StuffError)
			return
		}
		c.rxFSBNext = false
		return
	}
	if c.rxFSIdx < 4 {
		c.rxSCBits[c.rxFSIdx] = level
		c.rxFDCRC17.Update(level)
		c.rxFDCRC21.Update(level)
	} else {
		c.rxFDCRCBits = append(c.rxFDCRCBits, level)
	}
	c.rxFSIdx++
	if c.rxFSIdx == 4+crcBits {
		count, ok := can.DecodeStuffCount(c.rxSCBits)
		crc := &c.rxFDCRC17
		if crcBits == 21 {
			crc = &c.rxFDCRC21
		}
		var got uint32
		for _, b := range c.rxFDCRCBits {
			got = got<<1 | uint32(b)
		}
		c.rxCRCOK = ok && count == c.rxDynStuff&7 && got == crc.Sum()
		c.rxTrailer = 1
		return
	}
	if c.rxFSIdx%4 == 0 {
		c.rxFSBNext = true
	}
}
