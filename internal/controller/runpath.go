package controller

import (
	"unsafe"

	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/memo"
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

// rxSpanKey identifies a committed span by the identity of its bits: plans
// are immutable once built and memoized (planFor), so a span's backing
// array pointer plus its length pins the exact level sequence — the cached
// key's strong pointer keeps the array alive, so the address cannot be
// reused for different bits.
type rxSpanKey struct {
	ptr *can.Level
	n   int32
}

// rxSpanSlotBits caps the span cache at 2^16 slots (message set ×
// rolling-counter rotation × the few clamped lengths each span recurs at).
// A realistic matrix's full rotation is tens of IDs × 256 counter values ≈
// 8k identities; at 2^16 slots in two-way sets virtually no set holds three
// or more of them, which under round-robin rotation would otherwise defeat
// the LRU and redecode those spans every cycle. The cache grows to the cap
// only as the traffic installs that many spans (see memo.Table).
const rxSpanSlotBits = 16

// newRxSpanCache returns an empty span cache.
func newRxSpanCache() *memo.Table[rxSpanKey, *rxSnapshot] {
	return memo.New[rxSpanKey, *rxSnapshot](rxSpanSlotBits, func(k rxSpanKey) uint64 {
		return uint64(uintptr(unsafe.Pointer(k.ptr))) ^ uint64(k.n)<<48
	})
}

// rxSnapshot is the receive pipeline's complete state after consuming a
// span from the post-SOF baseline. Both slices are stored with cap == len,
// so a later append (a follow-up bit after a clamped span) reallocates and
// leaves the cached arrays untouched.
type rxSnapshot struct {
	destuf      can.Destuffer
	bits        []can.Level
	crc         can.CRC15
	dlc         int
	crcOK       bool
	trailer     int
	layout      can.Layout
	layoutKnown bool
	remote      bool
	dataLen     int
	awaitStuff  bool
	fd, fdKnown bool
	fdcrc17     can.FDCRC
	fdcrc21     can.FDCRC
	dynStuff    int
	fsIdx       int
	fsbNext     bool
	fdCRCBits   []can.Level
	lastWire    can.Level
	wire        int
	driveNext   can.Level
}

// rxRun feeds a span of resolved levels through the receive pipeline.
//
// A receiver consuming a committed span from the post-SOF baseline (rxWire
// == 1, the state resetRx plus the SOF bit always produces) ends in a state
// that is a pure function of the span's levels — the pipeline reads nothing
// else, the bit time only feeds error paths a compliant stream cannot reach,
// and no receiver-visible callback fires before the final EOF bit, which is
// never committed. Periodic traffic replays the same spans over and over, so
// that end state is memoized per span identity and a hit replaces the whole
// decode with a state copy.
func (c *Controller) rxRun(from bus.BitTime, levels []can.Level) {
	if c.phase != phaseFrame || c.rxWire != 1 {
		c.rxRunSteps(from, levels)
		return
	}
	if c.rxSpanCache == nil {
		c.rxSpanCache = newRxSpanCache()
	}
	key := rxSpanKey{ptr: &levels[0], n: int32(len(levels))}
	if s := c.rxSpanCache.Get(key); s != nil {
		c.rxDestuf = s.destuf
		c.rxBits = append(c.rxBits[:0], s.bits...)
		c.rxCRC = s.crc
		c.rxDLC = s.dlc
		c.rxCRCOK = s.crcOK
		c.rxTrailer = s.trailer
		c.rxLayout = s.layout
		c.rxLayoutKnown = s.layoutKnown
		c.rxRemote = s.remote
		c.rxDataLen = s.dataLen
		c.rxAwaitStuff = s.awaitStuff
		c.rxFD = s.fd
		c.rxFDKnown = s.fdKnown
		*c.rxFDCRC17 = s.fdcrc17
		*c.rxFDCRC21 = s.fdcrc21
		c.rxDynStuff = s.dynStuff
		c.rxFSIdx = s.fsIdx
		c.rxFSBNext = s.fsbNext
		c.rxFDCRCBits = append(c.rxFDCRCBits[:0], s.fdCRCBits...)
		c.rxLastWire = s.lastWire
		c.rxWire = s.wire
		c.driveNext = s.driveNext
		return
	}
	c.rxRunSteps(from, levels)
	if c.phase != phaseFrame || c.rxWire != 1+len(levels) {
		return // left the frame or split the span: state not span-pure
	}
	// Snapshot on the first sighting. Rolling payload counters make a span
	// recur only once per full rotation, so a recurrence filter ("snapshot on
	// the second decode") would redecode every one of the rotation's ~8k span
	// identities each cycle; a wasted snapshot for a genuinely one-shot span
	// costs one small allocation and an eviction.
	c.rxSpanCache.Put(key, &rxSnapshot{
		destuf:      c.rxDestuf,
		bits:        cloneExact(c.rxBits),
		crc:         c.rxCRC,
		dlc:         c.rxDLC,
		crcOK:       c.rxCRCOK,
		trailer:     c.rxTrailer,
		layout:      c.rxLayout,
		layoutKnown: c.rxLayoutKnown,
		remote:      c.rxRemote,
		dataLen:     c.rxDataLen,
		awaitStuff:  c.rxAwaitStuff,
		fd:          c.rxFD,
		fdKnown:     c.rxFDKnown,
		fdcrc17:     *c.rxFDCRC17,
		fdcrc21:     *c.rxFDCRC21,
		dynStuff:    c.rxDynStuff,
		fsIdx:       c.rxFSIdx,
		fsbNext:     c.rxFSBNext,
		fdCRCBits:   cloneExact(c.rxFDCRCBits),
		lastWire:    c.rxLastWire,
		wire:        c.rxWire,
		driveNext:   c.driveNext,
	})
}

// cloneExact copies a slice with cap == len, so appends by the adopter
// reallocate instead of scribbling on the original.
func cloneExact(s []can.Level) []can.Level {
	if len(s) == 0 {
		return nil
	}
	out := make([]can.Level, len(s))
	copy(out, s)
	return out
}

// rxRunSteps is the stepping decode behind rxRun. The stuffed region of a
// classical frame after the DLC is known — the bulk of every span — runs
// through a tight inline loop; everything else falls back to the per-bit
// functions. Should an error path ever leave the frame phase mid-span
// (impossible for a compliant committed stream, but cheap to guard), the
// remainder replays through exact per-bit Observe.
func (c *Controller) rxRunSteps(from bus.BitTime, levels []can.Level) {
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
