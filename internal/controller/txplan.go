package controller

import (
	"errors"
	"slices"

	"michican/internal/can"
)

// txPlan is a fully serialized transmission: the wire bits of one frame
// (stuff bits included, ACK slot recessive) plus the geometry the transmit
// engine needs while monitoring the bus bit by bit, and the frame's payload.
// A plan depends only on the frame's encoded fields and is immutable once
// its source publishes it: every controller on a PlanSource transmits the
// same frame content from the same plan, and everything a controller tracks
// about an attempt (the frame value it latched from the mailbox) lives on
// the controller, never here.
type txPlan struct {
	// data is the plan's copy of the frame's payload (see withData), written
	// at compile time and never after; every queued frame's Data points here.
	data    []byte
	payload [can.MaxDataLen]byte
	// bits is the wire sequence from SOF through the last EOF bit.
	bits []can.Level
	// arbEnd is the wire index just past the arbitration field (the 11 ID
	// bits plus RTR, including any stuff bits falling inside). A dominant
	// level read while sending a recessive payload bit before arbEnd means
	// arbitration was lost, not a bit error.
	arbEnd int
	// isStuff marks wire positions holding stuff bits. Two compliant nodes
	// still arbitrating have sent identical prefixes and therefore stuff at
	// identical positions, so a dominant level read during a transmitted
	// recessive stuff bit can never be a competing arbitration winner — it
	// is a stuff error even inside the arbitration field (this is the
	// paper's best case, where the counterattack triggers an error as early
	// as the RTR bit).
	isStuff []bool
	// ackIdx is the wire index of the ACK slot, where reading dominant while
	// sending recessive means the frame was acknowledged.
	ackIdx int
	// resolved is the pre-resolved splice span (window + dominant ACK +
	// recessive intermission) the splice tier hands to the bus, one copy
	// for every bus whose controllers transmit this frame. Nil only for FD
	// and oversize frames, which never splice.
	resolved []can.Level
	// id is the plan's dense publication index in its source (0, 1, 2, …),
	// offered with the window as its PlanID (the defense indexes its
	// compiled summaries by it); -1 for a plan the source did not publish.
	id int32
}

// planKey is the value identity of a classical frame, used to memoize
// serializations: equal frames share one plan.
type planKey struct {
	id      can.ID
	flags   uint8
	reqLen  int8
	dataLen int8
	data    [can.MaxDataLen]byte
}

// keyOf returns the content key of a classical frame (the caller has
// excluded FD and oversize frames).
func keyOf(f *can.Frame) planKey {
	key := planKey{id: f.ID, reqLen: int8(f.RequestLen), dataLen: int8(len(f.Data))}
	if f.Extended {
		key.flags |= 1
	}
	if f.Remote {
		key.flags |= 2
	}
	copy(key.data[:], f.Data)
	return key
}

// planFor returns the serialized plan for f, probing the controller's front
// cache and then its plan source (the shared one when wired, otherwise the
// controller's own); FD and oversize frames get a fresh unpublished plan.
// Enqueue calls it once per frame, so every mailbox entry carries its plan,
// as a real controller's mailbox keeps the frame serialized between the
// retransmissions and periodic re-sends that dominate bus traffic.
func (c *Controller) planFor(f can.Frame) *txPlan {
	if f.FD || len(f.Data) > can.MaxDataLen {
		return newTxPlan(f)
	}
	key := keyOf(&f)
	if p := c.planSlots[key]; p != nil {
		return p
	}
	p := c.source().plan(key, &f, true)
	if len(c.planSlots) < planSlotsMax {
		if c.planSlots == nil {
			c.planSlots = make(map[planKey]*txPlan)
		}
		c.planSlots[key] = p
	}
	return p
}

// planSlotsMax caps the planFor front cache at 2^15 entries: a realistic
// matrix's working set is tens of IDs times a 256-value rolling counter
// (thousands of distinct frames), an order of magnitude below the cap.
// Past it, new frames are not installed and go to the plan source.
const planSlotsMax = 1 << 15

// newTxPlan serializes a frame for transmission into an unpublished plan
// (id -1) holding its own copy of the payload; classical frames also get
// their resolved splice span.
func newTxPlan(f can.Frame) *txPlan {
	if f.FD {
		wire, isStuff, arbEnd, ackIdx := can.FDWirePlan(&f)
		return (&txPlan{bits: wire, arbEnd: arbEnd, isStuff: isStuff, ackIdx: ackIdx, id: -1}).withData(f.Data)
	}
	if !f.Extended {
		return newTxPlanBase(f).withData(f.Data)
	}
	body := can.UnstuffedBody(&f)
	arbEndPos := can.Layout{Extended: f.Extended}.ArbEndPos()
	var s can.Stuffer
	s.Reset()
	wire := make([]can.Level, 0, len(body)+len(body)/4+3+can.EOFBits)
	isStuff := make([]bool, 0, cap(wire))
	arbEnd := 0
	for pos, b := range body {
		out := s.Next(b)
		wire = append(wire, out...)
		isStuff = append(isStuff, false)
		if len(out) == 2 {
			isStuff = append(isStuff, true)
		}
		// The arbitration field covers unstuffed positions 1..RTR (position
		// 12 for base frames, 32 for extended ones); stuff bits emitted
		// inside stay subject to the stuff-error rule above.
		if pos <= arbEndPos {
			arbEnd = len(wire)
		}
	}
	wire = append(wire, can.Recessive) // CRC delimiter
	ackIdx := len(wire)
	wire = append(wire, can.Recessive) // ACK slot (transmitter sends recessive)
	wire = append(wire, can.Recessive) // ACK delimiter
	for i := 0; i < can.EOFBits; i++ {
		wire = append(wire, can.Recessive)
	}
	for len(isStuff) < len(wire) {
		isStuff = append(isStuff, false)
	}
	resolved := resolveSpan(make([]can.Level, len(wire)+IntermissionBits), wire, ackIdx)
	return (&txPlan{bits: wire, arbEnd: arbEnd, isStuff: isStuff, ackIdx: ackIdx, resolved: resolved, id: -1}).withData(f.Data)
}

// withData gives the plan its copy of the payload: in the plan's own array
// when it fits, as every classical payload does, otherwise a fresh one.
func (p *txPlan) withData(data []byte) *txPlan {
	p.data = slices.Clip(append(p.payload[:0], data...))
	return p
}

// resolveSpan fills dst (len(bits)+IntermissionBits levels) with the window
// as a splice resolves it: the acknowledged frame, then the recessive
// intermission tail.
func resolveSpan(dst, bits []can.Level, ackIdx int) []can.Level {
	copy(dst, bits)
	dst[ackIdx] = can.Dominant
	for i := len(bits); i < len(dst); i++ {
		dst[i] = can.Recessive
	}
	return dst
}

// newTxPlanBase serializes a classical base-format frame with field
// generation, CRC-15, and bit stuffing fused into a single pass (two
// allocations for the arrays: the wire bits and the resolved span share
// one). The output — bits, isStuff, arbEnd, ackIdx — is bit-identical to the
// general three-pass path in newTxPlan, which remains the reference for
// extended frames (a differential test pins the equivalence).
func newTxPlanBase(f can.Frame) *txPlan {
	unstuffed := can.UnstuffedLen(len(f.Data))
	dataEnd := unstuffed - can.CRCBits
	maxWire := unstuffed + unstuffed/4 + 3 + can.EOFBits
	levels := make([]can.Level, 2*maxWire+IntermissionBits)
	bits := levels[:0:maxWire]
	isStuff := make([]bool, 0, maxWire)

	rtr := can.Dominant
	dlc := uint(len(f.Data))
	if f.Remote {
		rtr = can.Recessive
		dlc = uint(f.RequestLen)
	}

	var (
		reg    uint16 // CRC-15 register
		sum    uint16 // snapshot of the register after the last data bit
		last   can.Level
		run    int
		arbEnd int
	)
	for pos := 0; pos < unstuffed; pos++ {
		var b can.Level
		switch {
		case pos == can.PosSOF:
			b = can.Dominant
		case pos < can.PosRTR:
			b = f.ID.Bit(pos - can.PosIDStart)
		case pos == can.PosRTR:
			b = rtr
		case pos < can.PosDLCStart:
			b = can.Dominant // IDE, r0
		case pos < can.PosDataStart:
			b = levelOf(dlc, can.PosDataStart-1-pos)
		case pos < dataEnd:
			off := pos - can.PosDataStart
			b = levelOf(uint(f.Data[off>>3]), 7-off&7)
		default:
			if pos == dataEnd {
				sum = reg
			}
			b = levelOf(uint(sum), unstuffed-1-pos)
		}
		if pos < dataEnd {
			// CRC_NXT = NXTBIT xor CRC_RG(14); shift; conditional xor 0x4599.
			nxt := uint16(b) ^ (reg >> (can.CRCBits - 1) & 1)
			reg = reg << 1 & (1<<can.CRCBits - 1)
			if nxt != 0 {
				reg ^= can.CRCPoly
			}
		}
		if pos > 0 && b == last {
			run++
		} else {
			last, run = b, 1
		}
		bits = append(bits, b)
		isStuff = append(isStuff, false)
		if run == can.StuffLimit {
			st := b ^ 1
			last, run = st, 1
			bits = append(bits, st)
			isStuff = append(isStuff, true)
		}
		if pos <= can.PosRTR {
			arbEnd = len(bits)
		}
	}
	bits = append(bits, can.Recessive) // CRC delimiter
	ackIdx := len(bits)
	bits = append(bits, can.Recessive, can.Recessive) // ACK slot, ACK delimiter
	for i := 0; i < can.EOFBits; i++ {
		bits = append(bits, can.Recessive)
	}
	for len(isStuff) < len(bits) {
		isStuff = append(isStuff, false)
	}
	n := len(bits)
	resolved := resolveSpan(levels[maxWire:maxWire+n+IntermissionBits:maxWire+n+IntermissionBits], bits, ackIdx)
	return &txPlan{bits: bits[:n:n], arbEnd: arbEnd, isStuff: isStuff, ackIdx: ackIdx, resolved: resolved, id: -1}
}

// levelOf returns bit i of v as a wire level (set = recessive).
func levelOf(v uint, i int) can.Level {
	return can.Level(v >> uint(i) & 1)
}

// Planned is a frame pre-validated and pre-serialized for transmission: a
// rolling-counter instance resolved through Rolling.Instance, whose payload
// is its table's immutable slice. Schedule-driven producers (the restbus
// replayer) enqueue it with EnqueuePlanned, which skips the front-cache
// probe Enqueue makes per frame. The zero Planned is invalid.
type Planned struct {
	frame can.Frame
	plan  *txPlan
}

// Valid reports whether p holds a plannable frame (the zero Planned is not).
func (p Planned) Valid() bool { return p.plan != nil }

// Frame returns the planned frame value.
func (p Planned) Frame() can.Frame { return p.frame }

// ErrUnplannable indicates an enqueue of the zero Planned.
var ErrUnplannable = errors.New("controller: frame cannot be pre-planned")

// EnqueuePlanned schedules a pre-planned frame for transmission with the
// plan it already holds. Equivalent to Enqueue(p.Frame()) in every
// observable way.
func (c *Controller) EnqueuePlanned(p Planned) error {
	if c.cfg.ListenOnly {
		return ErrListenOnly
	}
	if !p.Valid() {
		return ErrUnplannable
	}
	c.queue.push(p.frame, p.plan, c.cfg.SortQueueByPriority)
	return nil
}

// txQueue is the controller's transmit mailbox. The head of the queue is the
// frame currently being (re)transmitted. plans rides in parallel with frames:
// every entry is its frame's serialization, resolved at enqueue, and the
// frame's Data is that plan's payload or a rolling table's.
type txQueue struct {
	frames []can.Frame
	plans  []*txPlan
}

func (q *txQueue) push(f can.Frame, p *txPlan, sortByPriority bool) {
	if !sortByPriority {
		q.frames = append(q.frames, f)
		q.plans = append(q.plans, p)
		return
	}
	// Insert keeping ascending ID order (lowest ID = highest priority first).
	i := len(q.frames)
	for i > 0 && q.frames[i-1].ID > f.ID {
		i--
	}
	q.frames = append(q.frames, can.Frame{})
	copy(q.frames[i+1:], q.frames[i:])
	q.frames[i] = f
	q.plans = append(q.plans, nil)
	copy(q.plans[i+1:], q.plans[i:])
	q.plans[i] = p
}

// head returns the frame at the head of the mailbox and its plan.
func (q *txQueue) head() (can.Frame, *txPlan, bool) {
	if len(q.frames) == 0 {
		return can.Frame{}, nil, false
	}
	return q.frames[0], q.plans[0], true
}

// remove deletes the first queued frame equal to f. The transmit path uses
// it after a successful transmission: with a priority-sorted mailbox a
// higher-priority frame may have been inserted at the head while the
// completed frame was in flight, so popping the head would drop the wrong
// element.
func (q *txQueue) remove(f can.Frame) {
	for i := range q.frames {
		if q.frames[i].Equal(&f) {
			q.frames = append(q.frames[:i], q.frames[i+1:]...)
			q.plans = append(q.plans[:i], q.plans[i+1:]...)
			return
		}
	}
}

func (q *txQueue) len() int { return len(q.frames) }

// clear drops every queued frame but keeps the mailbox's capacity, so a
// controller that re-submits after bus-off does not re-grow it. Every slot
// up to capacity is zeroed, including those remove shifted past the end, so
// none pins a payload or plan.
func (q *txQueue) clear() {
	clear(q.frames[:cap(q.frames)])
	clear(q.plans[:cap(q.plans)])
	q.frames, q.plans = q.frames[:0], q.plans[:0]
}
