// Package controller implements a bit-accurate CAN 2.0A protocol controller:
// the data-link engine that every ECU in the simulation (benign, attacker,
// and the MichiCAN defender's own application traffic) uses to exchange
// frames.
//
// The controller implements the subset of ISO 11898-1 that the MichiCAN
// paper's evaluation depends on: frame serialization with bit stuffing and
// CRC-15, CSMA/CR arbitration, bit monitoring, stuff/form/CRC/ACK error
// detection, active and passive error flags, transmit/receive error counters
// (TEC/REC) with the error-active → error-passive → bus-off fault-confinement
// rules, suspend transmission for error-passive transmitters, automatic
// retransmission, and bus-off recovery after 128 occurrences of 11 recessive
// bits.
//
// The controller is a bus.Node: the simulated bus calls Drive then Observe
// once per nominal bit time. All protocol logic lives in Observe, which also
// decides the level to drive during the next bit.
package controller

import (
	"errors"
	"fmt"

	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/telemetry"
)

// State is the fault-confinement state of a CAN node (Fig. 1b of the paper).
type State uint8

const (
	// ErrorActive nodes signal errors with active (dominant) error flags.
	ErrorActive State = iota + 1
	// ErrorPassive nodes signal errors with passive (recessive) error flags
	// and observe a suspend-transmission period after transmitting.
	ErrorPassive
	// BusOff nodes do not participate in bus traffic until recovery.
	BusOff
)

// String returns the conventional name of the state.
func (s State) String() string {
	switch s {
	case ErrorActive:
		return "error-active"
	case ErrorPassive:
		return "error-passive"
	case BusOff:
		return "bus-off"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Fault-confinement thresholds per ISO 11898-1.
const (
	// PassiveThreshold is the TEC/REC value above which a node is
	// error-passive.
	PassiveThreshold = 127
	// BusOffThreshold is the TEC value at which a node enters bus-off.
	BusOffThreshold = 256
	// TxErrorPenalty is added to the TEC when a transmitter detects an error.
	TxErrorPenalty = 8
	// RecoverySequences is the number of 11-recessive-bit sequences a
	// bus-off node must observe before rejoining as error-active.
	RecoverySequences = 128
	// RecoveryIdleBits is the length of one recovery idle sequence.
	RecoveryIdleBits = 11
	// ActiveFlagBits is the number of dominant bits in an active error flag.
	ActiveFlagBits = 6
	// PassiveFlagBits is the number of recessive bits in a passive error
	// flag before the delimiter (the paper counts flag+delimiter = 14).
	PassiveFlagBits = 6
	// ErrorDelimiterBits is the number of recessive bits closing any error
	// frame.
	ErrorDelimiterBits = 8
	// IntermissionBits is the inter-frame space.
	IntermissionBits = can.IntermissionBits
	// SuspendBits is the suspend-transmission penalty for an error-passive
	// node that transmitted the current or previous frame.
	SuspendBits = 8
)

// ErrorKind classifies a detected protocol error.
type ErrorKind uint8

// The five CAN error types (Sec. II-B); the paper's defense exploits Bit and
// Stuff errors.
const (
	BitError ErrorKind = iota + 1
	StuffError
	FormError
	CRCError
	AckError
)

// String names the error kind.
func (k ErrorKind) String() string {
	switch k {
	case BitError:
		return "bit"
	case StuffError:
		return "stuff"
	case FormError:
		return "form"
	case CRCError:
		return "crc"
	case AckError:
		return "ack"
	default:
		return fmt.Sprintf("ErrorKind(%d)", uint8(k))
	}
}

// phase is the controller's position within the frame/error/idle cycle.
type phase uint8

const (
	phaseIdle phase = iota + 1
	phaseFrame
	phaseActiveFlag
	phasePassiveFlag
	phaseErrorDelim
	phaseIntermission
	phaseSuspend
	phaseBusOff
)

// Stats accumulates observable controller activity for the experiments.
type Stats struct {
	// TxSuccess counts frames transmitted and acknowledged.
	TxSuccess int
	// TxAttempts counts transmission attempts including retransmissions.
	TxAttempts int
	// TxErrors counts errors detected while transmitting, by kind.
	TxErrors map[ErrorKind]int
	// RxSuccess counts frames received with a valid CRC.
	RxSuccess int
	// RxErrors counts errors detected while receiving, by kind.
	RxErrors map[ErrorKind]int
	// ArbitrationLosses counts arbitration rounds lost to a lower ID.
	ArbitrationLosses int
	// BusOffEvents counts transitions into the bus-off state.
	BusOffEvents int
	// Recoveries counts bus-off recoveries back to error-active.
	Recoveries int
}

func newStats() Stats {
	return Stats{
		TxErrors: make(map[ErrorKind]int),
		RxErrors: make(map[ErrorKind]int),
	}
}

// Config parameterizes a Controller.
type Config struct {
	// Name identifies the controller in traces and test failures.
	Name string
	// AutoRecover enables automatic bus-off recovery after 128×11 recessive
	// bits (most integrated controllers support this; the paper's persistent
	// attacker relies on it). Default true via New.
	AutoRecover bool
	// SortQueueByPriority makes the transmit mailbox always offer the
	// lowest-ID pending frame first, as priority-mailbox controllers do.
	// When false the queue is FIFO (Experiment 6 relies on FIFO order).
	SortQueueByPriority bool
	// ListenOnly puts the controller in bus-monitoring mode: it receives
	// frames but never drives the wire — no ACKs, no error flags, no
	// transmissions (Enqueue fails). Real controllers offer this for
	// diagnostics; a listen-only IDS is invisible to the bus.
	ListenOnly bool
	// OnReceive, when set, is invoked for every frame received with a valid
	// CRC (excluding the controller's own transmissions).
	OnReceive func(t bus.BitTime, f can.Frame)
	// OnTransmit, when set, is invoked when one of this controller's frames
	// completes successfully.
	OnTransmit func(t bus.BitTime, f can.Frame)
	// OnStateChange, when set, is invoked on fault-confinement transitions.
	OnStateChange func(t bus.BitTime, old, new State)
	// OnError, when set, is invoked whenever this controller detects a
	// protocol error (before the error flag is sent).
	OnError func(t bus.BitTime, kind ErrorKind, transmitting bool)
	// Plans, when set, resolves frame serializations through a shared
	// content-addressed plan cache instead of building them per controller;
	// see PlanSource. Behavior is bit-identical either way.
	Plans *PlanSource
}

// Controller is a simulated CAN protocol controller. Create with New.
type Controller struct {
	cfg   Config
	state State
	tec   int
	rec   int
	stats Stats

	queue txQueue

	phase     phase
	driveNext can.Level

	// Frame-attempt state (phaseFrame).
	transmitting bool
	plan         *txPlan
	txIdx        int
	acked        bool
	// planCache memoizes serializations of recently transmitted frames
	// (periodic traffic retransmits a small fixed message set); see planFor.
	planCache map[planKey]*txPlan
	// plans, when non-nil, is the fleet-shared plan cache consulted on
	// planCache misses (see PlanSource); wired from Config.Plans or
	// SetPlanSource.
	plans *PlanSource
	// planSlots is a direct-mapped front cache over planCache: the map probe
	// hashes the full frame content on every lookup, which dominates the
	// compiled-splice offer path, so hot frames are also indexed by a cheap
	// hash and verified by value comparison. Lazily sized; misses fall
	// through to the map.
	planSlots []*txPlan
	// rxSpanCache memoizes the receive pipeline's end state per committed
	// span (see rxRun); adoption copies the snapshot into the controller's
	// own working buffers, so the cached slices are never aliased.
	rxSpanCache []rxSpanSlot

	// Receive pipeline, active for every frame on the bus from its SOF.
	rxDestuf      can.Destuffer
	rxBits        []can.Level
	rxCRC         can.CRC15
	rxDLC         int
	rxCRCOK       bool
	rxTrailer     int // 0 while in the stuffed region; 1..10 trailer bit index
	rxAwaitStuff  bool
	rxLayout      can.Layout
	rxLayoutKnown bool
	rxRemote      bool
	rxDataLen     int
	// FD receive state: parallel FD CRCs run over every wire bit of the
	// dynamic region (FD CRCs cover stuff bits), plus the fixed-stuff
	// region cursor.
	rxFD        bool
	rxFDKnown   bool
	rxFDCRC17   *can.FDCRC
	rxFDCRC21   *can.FDCRC
	rxDynStuff  int
	rxFSIdx     int // payload index within the fixed-stuff region
	rxFSBNext   bool
	rxSCBits    [4]can.Level
	rxFDCRCBits []can.Level
	rxLastWire  can.Level
	// rxWire counts the wire bits of the current frame this controller has
	// consumed (SOF included, so it reads 1 after the SOF bit). A receiver is
	// bit-synchronized to a transmitter exactly when rxWire equals the
	// transmitter's txIdx — the proof the frame fast path relies on.
	rxWire int

	// Error-signalling counters.
	flagCount    int
	delimCount   int
	passiveLast  can.Level
	passiveBegun bool

	// Idle / intermission / suspend bookkeeping.
	interCount   int
	suspendCount int
	idleRun      int

	// Suspend-transmission rule: an error-passive node suspends if it
	// transmitted the current or previous frame (ISO 11898, quoted in
	// Sec. V-C). framesSinceTx counts frame attempts by other nodes since
	// this node's last attempt.
	framesSinceTx int

	// pendingSOF records that we decided to assert SOF during the next bit,
	// so that when the dominant level appears we know we are a contender.
	pendingSOF bool

	// pendingPlan caches the head frame's plan between the pending-SOF
	// ContendBits query and the beginFrame that consumes it, saving the
	// second plan-cache probe; beginFrame validates it against the live
	// queue head before trusting it.
	pendingPlan *txPlan

	// Bus-off recovery progress.
	recoverSeqs int
	recoverRun  int

	// Telemetry. tel's zero value is a no-op probe; lastTEC/lastREC track
	// the last emitted counter values so EvTEC/EvREC events carry the
	// previous value and fire only on change.
	tel     telemetry.Probe
	lastTEC int
	lastREC int
}

var _ bus.Node = (*Controller)(nil)

// New creates an idle, error-active controller.
func New(cfg Config) *Controller {
	c := &Controller{
		cfg:           cfg,
		plans:         cfg.Plans,
		state:         ErrorActive,
		stats:         newStats(),
		phase:         phaseIdle,
		driveNext:     can.Recessive,
		rxDLC:         -1,
		framesSinceTx: 2, // no suspend before the first own transmission
	}
	c.rxBits = make([]can.Level, 0, can.UnstuffedLen(can.MaxDataLen))
	return c
}

// Name returns the configured controller name.
func (c *Controller) Name() string { return c.cfg.Name }

// SetTelemetry wires the controller to a telemetry hub, registering it under
// its configured name. The controller emits arbitration outcomes, error
// episodes, TEC/REC transitions, bus-off entry, and recovery. A nil hub
// disables emission (the default).
func (c *Controller) SetTelemetry(hub *telemetry.Hub) {
	c.tel = hub.Probe(c.cfg.Name)
	c.lastTEC, c.lastREC = c.tec, c.rec
}

// emitCounters emits EvTEC/EvREC for any counter change since the last
// emission. Call after every mutation of tec or rec; no-op when unwired.
func (c *Controller) emitCounters(t bus.BitTime) {
	if !c.tel.Enabled() {
		return
	}
	if c.tec != c.lastTEC {
		c.tel.Emit(int64(t), telemetry.EvTEC, int64(c.tec), int64(c.lastTEC))
		c.lastTEC = c.tec
	}
	if c.rec != c.lastREC {
		c.tel.Emit(int64(t), telemetry.EvREC, int64(c.rec), int64(c.lastREC))
		c.lastREC = c.rec
	}
}

// State returns the current fault-confinement state.
func (c *Controller) State() State { return c.state }

// TEC returns the transmit error counter.
func (c *Controller) TEC() int { return c.tec }

// REC returns the receive error counter.
func (c *Controller) REC() int { return c.rec }

// Stats returns a copy of the accumulated statistics.
func (c *Controller) Stats() Stats {
	s := c.stats
	s.TxErrors = make(map[ErrorKind]int, len(c.stats.TxErrors))
	for k, v := range c.stats.TxErrors {
		s.TxErrors[k] = v
	}
	s.RxErrors = make(map[ErrorKind]int, len(c.stats.RxErrors))
	for k, v := range c.stats.RxErrors {
		s.RxErrors[k] = v
	}
	return s
}

// ErrListenOnly indicates a transmission request on a monitoring-mode
// controller.
var ErrListenOnly = errors.New("controller: listen-only mode cannot transmit")

// Enqueue schedules a frame for transmission. It returns an error if the
// frame is invalid or the controller is in listen-only mode.
func (c *Controller) Enqueue(f can.Frame) error {
	if c.cfg.ListenOnly {
		return ErrListenOnly
	}
	if err := f.Validate(); err != nil {
		return err
	}
	c.queue.push(f.Clone(), nil, c.cfg.SortQueueByPriority)
	return nil
}

// PendingTx returns the number of frames waiting for transmission
// (including one mid-retransmission).
func (c *Controller) PendingTx() int { return c.queue.len() }

// Transmitting reports whether the controller is actively driving a frame on
// the bus this instant.
func (c *Controller) Transmitting() bool {
	return c.phase == phaseFrame && c.transmitting
}

// Drive implements bus.Node: it returns the level decided at the end of the
// previous bit.
func (c *Controller) Drive(_ bus.BitTime) can.Level { return c.driveNext }

// Observe implements bus.Node: it consumes the resolved bus level for bit t,
// advances the protocol state machine, and decides the level to drive during
// bit t+1.
func (c *Controller) Observe(t bus.BitTime, level can.Level) {
	if level == can.Recessive {
		c.idleRun++
	} else {
		c.idleRun = 0
	}
	c.driveNext = can.Recessive

	switch c.phase {
	case phaseBusOff:
		c.observeBusOff(t, level)
	case phaseIdle:
		c.observeIdle(t, level)
	case phaseFrame:
		c.observeFrame(t, level)
	case phaseActiveFlag:
		c.observeActiveFlag(t, level)
	case phasePassiveFlag:
		c.observePassiveFlag(t, level)
	case phaseErrorDelim:
		c.observeErrorDelim(t, level)
	case phaseIntermission:
		c.observeIntermission(t, level)
	case phaseSuspend:
		c.observeSuspend(t, level)
	}
}

func (c *Controller) observeBusOff(t bus.BitTime, level can.Level) {
	if !c.cfg.AutoRecover {
		return
	}
	if level == can.Recessive {
		c.recoverRun++
		if c.recoverRun >= RecoveryIdleBits {
			c.recoverSeqs++
			c.recoverRun = 0
		}
	} else {
		c.recoverRun = 0
	}
	if c.recoverSeqs >= RecoverySequences {
		old := c.state
		c.state = ErrorActive
		c.tec, c.rec = 0, 0
		c.recoverSeqs, c.recoverRun = 0, 0
		c.phase = phaseIdle
		c.stats.Recoveries++
		c.tel.Emit(int64(t), telemetry.EvRecover, 0, 0)
		c.emitCounters(t)
		c.notifyState(t, old, c.state)
	}
}

func (c *Controller) observeIdle(t bus.BitTime, level can.Level) {
	if level == can.Dominant {
		// Someone asserted SOF (possibly us — Drive already returned
		// dominant if we decided to start last bit).
		c.beginFrame(t, level, c.pendingSOF)
		c.pendingSOF = false
		return
	}
	// Bus idle; start a transmission next bit if a frame is pending.
	if c.queue.len() > 0 {
		c.driveNext = can.Dominant
		c.pendingSOF = true
	}
}

func (c *Controller) observeIntermission(t bus.BitTime, level can.Level) {
	if level == can.Dominant {
		// A node started early (or overload condition, simplified): treat
		// as SOF of a new frame.
		c.beginFrame(t, level, false)
		return
	}
	c.interCount++
	if c.interCount >= IntermissionBits {
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
}

func (c *Controller) observeSuspend(t bus.BitTime, level can.Level) {
	if level == can.Dominant {
		// Another node accessed the bus during our suspend period; we join
		// as a receiver.
		c.beginFrame(t, level, false)
		return
	}
	c.suspendCount++
	if c.suspendCount >= SuspendBits {
		c.phase = phaseIdle
		if c.queue.len() > 0 {
			c.driveNext = can.Dominant
			c.pendingSOF = true
		}
	}
}

// notifyState invokes the state-change callback if configured.
func (c *Controller) notifyState(t bus.BitTime, old, new State) {
	if old != new && c.cfg.OnStateChange != nil {
		c.cfg.OnStateChange(t, old, new)
	}
}
