// Package mcu models the microcontroller facilities MichiCAN depends on
// (Sec. II-C, IV-B, IV-C): pin multiplexing between the integrated CAN
// controller and GPIO, the per-bit timer interrupt with hard synchronization
// at SOF, and a cycle-accounting meter that stands in for the paper's
// external ESP8266 cycle counter when evaluating CPU utilization (Sec. V-D).
package mcu

import (
	"fmt"

	"michican/internal/can"
)

// PinMux models the peripheral I/O controller's multiplexing of the
// CAN_RX/CAN_TX lines (Fig. 4a). CAN_RX is always readable once the defense
// boots; CAN_TX is multiplexed to GPIO only for the duration of a
// counterattack and released immediately afterwards, because holding the pin
// would either destroy traffic (held low) or break ACK generation (held
// high) — Sec. IV-B.
type PinMux struct {
	rx        can.Level
	txEnabled bool
	txLevel   can.Level

	// TxEnableCount counts EnableTX calls (counterattacks started).
	TxEnableCount int
}

// NewPinMux returns a mux with CAN_TX released and the bus idle.
func NewPinMux() *PinMux {
	return &PinMux{rx: can.Recessive, txLevel: can.Recessive}
}

// LatchRX stores the current bus level on the CAN_RX line. The simulation
// harness calls this once per bit before the defense's handler runs.
func (p *PinMux) LatchRX(level can.Level) { p.rx = level }

// ReadRX reads the CAN_RX register directly (Algorithm 1, line 2).
func (p *PinMux) ReadRX() can.Level { return p.rx }

// EnableTX multiplexes CAN_TX to GPIO for a counterattack.
func (p *PinMux) EnableTX() {
	if !p.txEnabled {
		p.txEnabled = true
		p.TxEnableCount++
	}
	p.txLevel = can.Recessive
}

// DisableTX releases CAN_TX back to the CAN controller; the pin stops
// driving the bus.
func (p *PinMux) DisableTX() {
	p.txEnabled = false
	p.txLevel = can.Recessive
}

// PullLow drives CAN_TX dominant. It has no effect unless EnableTX was
// called first (the PIO controller owns the pin otherwise).
func (p *PinMux) PullLow() {
	if p.txEnabled {
		p.txLevel = can.Dominant
	}
}

// TXEnabled reports whether CAN_TX is multiplexed to GPIO.
func (p *PinMux) TXEnabled() bool { return p.txEnabled }

// DriveLevel returns the level the mux currently puts on the bus: dominant
// only while a counterattack is pulling the pin low.
func (p *PinMux) DriveLevel() can.Level {
	if p.txEnabled && p.txLevel == can.Dominant {
		return can.Dominant
	}
	return can.Recessive
}

// Op is a meterable operation inside the defense's interrupt handler.
type Op uint8

// Operations charged by the defense, mirroring Algorithm 1's structure.
const (
	// OpISREnterExit is the fixed interrupt entry/exit overhead; the paper
	// singles this out as unusually expensive on the Arduino Due (Sec. VI-B).
	OpISREnterExit Op = iota + 1
	// OpReadRX is the direct register read of CAN_RX (line 2).
	OpReadRX
	// OpStuffTrack is the stuff-bit bookkeeping (lines 6-15).
	OpStuffTrack
	// OpFrameStore appends the destuffed bit to the frame array (line 10).
	OpFrameStore
	// OpFSMStep is one detection-FSM transition (line 12).
	OpFSMStep
	// OpCounterattack covers mux enable/disable and pulling the pin
	// (lines 16-23).
	OpCounterattack
	// OpIdleTrack is the SOF-hunting bookkeeping during bus idle
	// (lines 24-28).
	OpIdleTrack
	// OpFrameReset reinitializes counters and the FSM at SOF (lines 29-31);
	// its constant cost is what the fudge factor compensates (Sec. IV-C).
	OpFrameReset
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpISREnterExit:
		return "isr"
	case OpReadRX:
		return "read-rx"
	case OpStuffTrack:
		return "stuff-track"
	case OpFrameStore:
		return "frame-store"
	case OpFSMStep:
		return "fsm-step"
	case OpCounterattack:
		return "counterattack"
	case OpIdleTrack:
		return "idle-track"
	case OpFrameReset:
		return "frame-reset"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Meter accumulates the cycles consumed by the defense on a given MCU,
// playing the role of the paper's ESP8266 external timer.
type Meter struct {
	profile Profile
	cycles  int64
	perBit  int64
	// histogram of per-invocation handler cost, for max/mean reporting.
	invocations int64
	maxPerBit   int64
	sumPerBit   int64
	// Per-class accounting: "active" invocations process a frame bit,
	// "idle" invocations only hunt for SOF. The paper's Sec. V-D reports
	// idle load, active load, and their average as the combined load.
	idleCycles, idleInv     int64
	activeCycles, activeInv int64
}

// NewMeter creates a meter for the given MCU profile.
func NewMeter(p Profile) *Meter {
	return &Meter{profile: p}
}

// Charge adds the cycle cost of one operation to the running handler
// invocation.
func (m *Meter) Charge(op Op) {
	m.perBit += m.profile.Cost(op)
}

// ChargeFSMStep adds the cost of one FSM transition for a machine of the
// given state count; bigger FSMs cost more cycles per step (the paper's
// "CPU load depends on FSM complexity").
func (m *Meter) ChargeFSMStep(fsmStates int) {
	m.perBit += m.profile.FSMStepCost(fsmStates)
}

// EndInvocation closes one handler invocation (one bit time) and folds its
// cost into the totals, classified as an idle (SOF-hunting) bit.
func (m *Meter) EndInvocation() { m.EndInvocationAs(false) }

// EndInvocationAs closes one handler invocation, classifying it as active
// (frame processing) or idle (bus idle, SOF hunting).
func (m *Meter) EndInvocationAs(active bool) {
	m.cycles += m.perBit
	m.invocations++
	m.sumPerBit += m.perBit
	if m.perBit > m.maxPerBit {
		m.maxPerBit = m.perBit
	}
	if active {
		m.activeCycles += m.perBit
		m.activeInv++
	} else {
		m.idleCycles += m.perBit
		m.idleInv++
	}
	m.perBit = 0
}

// ChargeIdleInvocations folds n identical idle (SOF-hunting) handler
// invocations, each consuming the listed operations, into the totals in
// O(1). It is exactly equivalent to n rounds of Charge(ops...) followed by
// EndInvocationAs(false) — the batch path the bus idle fast-forward uses.
func (m *Meter) ChargeIdleInvocations(n int64, ops ...Op) {
	if n <= 0 {
		return
	}
	var per int64
	for _, op := range ops {
		per += m.profile.Cost(op)
	}
	m.cycles += n * per
	m.invocations += n
	m.sumPerBit += n * per
	if per > m.maxPerBit {
		m.maxPerBit = per
	}
	m.idleCycles += n * per
	m.idleInv += n
}

// ChargeInvocationsAs folds n handler invocations of per cycles each into
// the totals, classified active or idle. It is exactly equivalent to n
// rounds of charges totalling per cycles, each closed by
// EndInvocationAs(active) — the batch path for uniform-cost bit runs.
func (m *Meter) ChargeInvocationsAs(n, per int64, active bool) {
	if n <= 0 {
		return
	}
	m.cycles += n * per
	m.invocations += n
	m.sumPerBit += n * per
	if per > m.maxPerBit {
		m.maxPerBit = per
	}
	if active {
		m.activeCycles += n * per
		m.activeInv += n
	} else {
		m.idleCycles += n * per
		m.idleInv += n
	}
}

// OpCost returns the cycle cost of one operation under this meter's profile,
// for callers precomputing batched invocation costs.
func (m *Meter) OpCost(op Op) int64 { return m.profile.Cost(op) }

// FSMStepCostOf returns the cycle cost of one FSM transition for a machine
// of the given state count under this meter's profile.
func (m *Meter) FSMStepCostOf(fsmStates int) int64 { return m.profile.FSMStepCost(fsmStates) }

// IdleLoad returns the mean CPU utilization of idle-bit invocations: cycles
// per idle bit divided by cycles per bit time at the given bus rate.
func (m *Meter) IdleLoad(rate int) float64 {
	if m.idleInv == 0 || rate <= 0 {
		return 0
	}
	return float64(m.idleCycles) / float64(m.idleInv) / m.profile.CyclesPerBit(rate)
}

// ActiveLoad returns the mean CPU utilization of frame-processing
// invocations.
func (m *Meter) ActiveLoad(rate int) float64 {
	if m.activeInv == 0 || rate <= 0 {
		return 0
	}
	return float64(m.activeCycles) / float64(m.activeInv) / m.profile.CyclesPerBit(rate)
}

// CombinedLoad returns the paper's Sec. V-D "combined load": the average of
// the idle and active loads (the CPU overhead oscillates between the two
// states).
func (m *Meter) CombinedLoad(rate int) float64 {
	return (m.IdleLoad(rate) + m.ActiveLoad(rate)) / 2
}

// TotalCycles returns the cycles consumed so far.
func (m *Meter) TotalCycles() int64 { return m.cycles }

// Invocations returns the number of handler invocations metered.
func (m *Meter) Invocations() int64 { return m.invocations }

// MeanCyclesPerBit returns the average handler cost per invocation.
func (m *Meter) MeanCyclesPerBit() float64 {
	if m.invocations == 0 {
		return 0
	}
	return float64(m.sumPerBit) / float64(m.invocations)
}

// MaxCyclesPerBit returns the worst-case handler cost observed.
func (m *Meter) MaxCyclesPerBit() int64 { return m.maxPerBit }

// Utilization returns the CPU load over an interval of elapsedBits nominal
// bit times at the given bus rate: cycles consumed divided by cycles
// available.
func (m *Meter) Utilization(elapsedBits int64, rate int) float64 {
	if elapsedBits == 0 || rate == 0 {
		return 0
	}
	available := float64(elapsedBits) * float64(m.profile.ClockHz) / float64(rate)
	return float64(m.cycles) / available
}

// Reset zeroes all accumulators.
func (m *Meter) Reset() {
	m.cycles, m.perBit, m.invocations, m.maxPerBit, m.sumPerBit = 0, 0, 0, 0, 0
	m.idleCycles, m.idleInv, m.activeCycles, m.activeInv = 0, 0, 0, 0
}
