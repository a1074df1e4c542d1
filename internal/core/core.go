// Package core implements the MichiCAN defense — the paper's primary
// contribution (Sec. IV). A Defense is attached to the CAN bus alongside an
// ECU's ordinary controller and runs the five phases:
//
//   - Initial configuration: an offline-generated detection FSM (package
//     internal/fsm) is installed per ECU, in the full or light scenario.
//   - Synchronization: the defense hunts for SOF — the first dominant level
//     after at least 11 recessive bits — and hard-synchronizes its per-bit
//     handler there (Sec. IV-C). In this simulation the bus delivers exactly
//     one resolved level per nominal bit time, which corresponds to the
//     paper's 70%-sample-point timer; the analog jitter story is modeled by
//     mcu.BitClock.
//   - Pin multiplexing: CAN_RX is read directly every bit; CAN_TX is
//     multiplexed to GPIO only while a counterattack is in progress
//     (Sec. IV-B, mcu.PinMux).
//   - Detection: Algorithm 1 — per-bit stuff-bit removal and FSM stepping
//     over the 11-bit CAN ID, stopping the FSM as soon as a decision falls.
//   - Prevention: on a malicious verdict the defense pulls CAN_TX dominant
//     from frame position 13 (the RTR bit) through position 20, inducing a
//     bit or stuff error in the attacker's transmission without ever
//     touching the defender's own TEC (Sec. IV-E).
//
// The defense is not a CAN node in the protocol sense: it never sends
// frames, never ACKs, and never raises error flags. Its only write access to
// the wire is the counterattack pull.
package core

import (
	"errors"
	"fmt"

	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/fsm"
	"michican/internal/mcu"
	"michican/internal/telemetry"
)

// Counterattack geometry (Sec. IV-E / Algorithm 1 lines 16-23): the pull
// starts when the frame counter reaches position 13 (1 SOF + 11 ID + 1 RTR)
// and the pin is released at position 20, injecting up to 6 dominant bits
// beyond the always-dominant IDE/r0 prefix.
const (
	// CounterattackStartPos is the frame position (SOF = 1) at which the
	// defense enables CAN_TX multiplexing and pulls the bus low.
	CounterattackStartPos = 13
	// CounterattackEndPos is the frame position at which the defense
	// releases CAN_TX.
	CounterattackEndPos = 20
)

// Stats accumulates the defense's observable behaviour.
type Stats struct {
	// FramesObserved counts SOFs the defense synchronized to.
	FramesObserved int
	// Detections counts malicious verdicts (one per observed attempt,
	// including every retransmission of the same attacker frame).
	Detections int
	// Counterattacks counts prevention pulls actually launched.
	Counterattacks int
	// DetectionBitsSum accumulates the FSM decision positions, for mean
	// detection latency (Sec. V-B).
	DetectionBitsSum int
	// DetectionBitsMax is the worst detection position observed.
	DetectionBitsMax int
	// AbortedFrames counts frames abandoned because an error frame (six
	// equal levels) appeared on the wire mid-ID.
	AbortedFrames int
}

// MeanDetectionBits returns the mean FSM decision position over all
// detections.
func (s Stats) MeanDetectionBits() float64 {
	if s.Detections == 0 {
		return 0
	}
	return float64(s.DetectionBitsSum) / float64(s.Detections)
}

// Config parameterizes a Defense.
type Config struct {
	// Name identifies the defense instance in traces.
	Name string
	// FSM is the offline-generated detection machine (required).
	FSM *fsm.FSM
	// Profile selects the MCU cycle model; the zero value disables metering
	// (a Meter is still created against the Arduino Due profile so that
	// Meter() is always usable).
	Profile mcu.Profile
	// PreventionEnabled gates the counterattack; with it false the defense
	// is detection-only (an IDS — useful for the paper's Table I
	// "eradication" comparison). Default true via New.
	PreventionEnabled bool
	// PullBits overrides the counterattack pull width (ablation knob). The
	// default 0 means the paper's 7 bits (positions 13 through 20); Sec.
	// IV-E shows 6 injected dominant bits are needed in the worst case, so
	// shorter pulls can fail to raise an error for some attacker frames.
	PullBits int
	// ExtendedAware extends the paper's 11-bit design to CAN 2.0B traffic.
	// The defense then discriminates the frame format at the IDE bit: for a
	// flagged *base* frame it strikes one position later than Algorithm 1
	// (after IDE instead of at RTR — the injected window still covers ≥6
	// dominant overwrites); for a flagged *extended* frame (malicious 11-bit
	// prefix) it keeps monitoring through the 18-bit identifier extension
	// and strikes right after the extended RTR, inducing a bit error instead
	// of interfering with the still-running arbitration. Without this flag a
	// flagged extended frame is struck during its arbitration field, which
	// merely forces an arbitration loss: the attacker is starved
	// (neutralized) but never accumulates TEC and is never eradicated.
	ExtendedAware bool
	// OnDetect, when set, fires on every malicious verdict with the FSM
	// decision position (1-11) within the CAN ID.
	OnDetect func(t bus.BitTime, bitPos int)
	// OnCounterattack, when set, fires when the prevention pull starts.
	OnCounterattack func(t bus.BitTime)
	// SelfTransmitting, when set, reports whether this ECU's own controller
	// is driving the current frame. The defense consults it before starting
	// a counterattack so it never destroys its host's legitimate
	// transmission of its own CAN ID (on real silicon the defense shares
	// the chip with the controller and knows its mailbox state). NewECU
	// wires this automatically.
	SelfTransmitting func() bool
}

// ErrNoFSM indicates a Defense configured without a detection FSM.
var ErrNoFSM = errors.New("core: defense requires a detection FSM")

// Defense is a MichiCAN instance: a bus.Node implementing Algorithm 1.
type Defense struct {
	cfg   Config
	mux   *mcu.PinMux
	meter *mcu.Meter
	stats Stats
	armed bool

	// Synchronization state: consecutive recessive bits seen while hunting
	// for SOF (cnt_sof in Algorithm 1).
	cntSOF int

	// Frame state (sof == true in Algorithm 1).
	inFrame bool
	cnt     int // frame position, SOF = 1, counting wire bits
	destuf  can.Destuffer
	idBits  int // unstuffed ID bits consumed (0-11)
	postID  int // payload bits consumed past the 11-bit ID field
	extFlag bool

	// Prevention state.
	attackFlag       bool // start_counterattack
	detectedAt       int  // FSM decision position within the ID (1-11)
	counterattacking bool
	pullRemaining    int
	pullWidth        int // the width the current pull started with

	// tel receives detection verdicts and counterattack pull spans; the zero
	// Probe is a no-op.
	tel telemetry.Probe

	// splices holds the compiled-splice summaries by window (see
	// spliceIndex in splicepath.go).
	splices spliceIndex
}

var _ bus.Node = (*Defense)(nil)

// New creates an armed Defense with prevention enabled.
func New(cfg Config) (*Defense, error) {
	if cfg.FSM == nil {
		return nil, ErrNoFSM
	}
	profile := cfg.Profile
	if profile.ClockHz == 0 {
		profile = mcu.ArduinoDue
	}
	cfg.PreventionEnabled = true
	return &Defense{
		cfg:   cfg,
		mux:   mcu.NewPinMux(),
		meter: mcu.NewMeter(profile),
		armed: true,
		// A freshly booted defense treats the bus as already idle, so the
		// first SOF after power-up is caught; attaching mid-frame instead
		// costs at most one frame of blindness until the next idle period.
		cntSOF: can.IdleForSOF,
	}, nil
}

// NewFor creates an armed Defense for the ECU that owns id on an IVN whose
// legitimate IDs are ids: cfg, with its FSM generated from id's detection
// set.
func NewFor(ids []can.ID, id can.ID, cfg Config) (*Defense, error) {
	v, err := fsm.NewIVN(ids)
	if err != nil {
		return nil, fmt.Errorf("build IVN: %w", err)
	}
	ds, err := fsm.NewDetectionSet(v, v.Index(id))
	if err != nil {
		return nil, fmt.Errorf("detection set: %w", err)
	}
	cfg.FSM = fsm.Build(ds)
	return New(cfg)
}

// NewDetectionOnly creates a Defense that detects but never counterattacks.
func NewDetectionOnly(cfg Config) (*Defense, error) {
	d, err := New(cfg)
	if err != nil {
		return nil, err
	}
	d.cfg.PreventionEnabled = false
	return d, nil
}

// Name returns the configured instance name.
func (d *Defense) Name() string { return d.cfg.Name }

// SetTelemetry wires the defense to a telemetry hub under its configured
// name. The defense emits EvDetect (with the FSM decision bit), EvPullStart,
// and EvPullEnd. A nil hub disables emission.
func (d *Defense) SetTelemetry(hub *telemetry.Hub) {
	d.tel = hub.Probe(d.cfg.Name)
}

// Stats returns a copy of the accumulated statistics.
func (d *Defense) Stats() Stats { return d.stats }

// MemoSlots reports the entries of the splice summary index, 0 before first
// use. It grows with the traffic, one entry per window id below 2^17.
func (d *Defense) MemoSlots() int { return d.splices.slots() }

// SpliceResets counts the splice index entries recompiled because a window
// numbered like an earlier one carried another resolved span: offerers on
// separate plan sources sharing ids. It stays 0 when every offerer on the
// bus draws from one source.
func (d *Defense) SpliceResets() int64 { return d.splices.resets }

// Meter exposes the MCU cycle meter for CPU-utilization evaluation.
func (d *Defense) Meter() *mcu.Meter { return d.meter }

// Mux exposes the pin multiplexer (read-mostly; used by tests).
func (d *Defense) Mux() *mcu.PinMux { return d.mux }

// Arm enables the defense (the default after New).
func (d *Defense) Arm() { d.armed = true }

// Disarm makes the defense a pure pass-through: no detection, no pulls. It
// releases CAN_TX if a counterattack was in flight.
func (d *Defense) Disarm() {
	d.armed = false
	d.endFrame()
}

// Armed reports whether the defense is active.
func (d *Defense) Armed() bool { return d.armed }

// Drive implements bus.Node: the defense drives the wire only during a
// counterattack pull.
func (d *Defense) Drive(_ bus.BitTime) can.Level { return d.mux.DriveLevel() }

// Observe implements bus.Node: it is the per-bit timer interrupt handler of
// Algorithm 1.
func (d *Defense) Observe(t bus.BitTime, level can.Level) {
	d.mux.LatchRX(level)
	if !d.armed {
		return
	}
	d.meter.Charge(mcu.OpISREnterExit)
	d.meter.Charge(mcu.OpReadRX)
	active := d.inFrame
	defer func() { d.meter.EndInvocationAs(active) }()

	if d.inFrame {
		d.onFrameBit(t, level)
		return
	}
	d.onIdleBit(t, level)
}

// onIdleBit hunts for SOF: a dominant level after at least 11 recessive bits
// (Algorithm 1 lines 24-31).
func (d *Defense) onIdleBit(t bus.BitTime, level can.Level) {
	d.meter.Charge(mcu.OpIdleTrack)
	if level == can.Recessive {
		d.cntSOF++
		return
	}
	if d.cntSOF >= can.IdleForSOF {
		d.beginFrame(t)
	}
	d.cntSOF = 0
}

// beginFrame hard-synchronizes at the SOF bit: the frame counter, stuff
// tracker, and FSM are reset (the constant-time work the fudge factor
// compensates, Sec. IV-C).
func (d *Defense) beginFrame(_ bus.BitTime) {
	d.meter.Charge(mcu.OpFrameReset)
	d.inFrame = true
	d.cnt = 1 // SOF is frame position 1
	d.destuf.Reset()
	// Seed the stuff tracker with the dominant SOF bit.
	if _, err := d.destuf.Next(can.Dominant); err != nil {
		// Unreachable: a single bit cannot violate stuffing.
		d.endFrame()
		return
	}
	d.idBits = 0
	d.postID = 0
	d.extFlag = false
	d.attackFlag = false
	d.counterattacking = false
	d.cfg.FSM.Reset()
	d.stats.FramesObserved++
}

// onFrameBit processes one in-frame bit: stuff-bit removal, FSM stepping
// over the ID, and the counterattack window (Algorithm 1 lines 3-23).
func (d *Defense) onFrameBit(t bus.BitTime, level can.Level) {
	d.cnt++

	if d.counterattacking {
		d.meter.Charge(mcu.OpCounterattack)
		d.pullRemaining--
		if d.pullRemaining <= 0 {
			d.tel.Emit(int64(t), telemetry.EvPullEnd, int64(d.pullWidth), 0)
			d.mux.DisableTX()
			d.endFrame()
			return
		}
		d.mux.PullLow() // keep the pin low for the next bit
		return
	}

	d.meter.Charge(mcu.OpStuffTrack)
	payload, err := d.destuf.Next(level)
	if err != nil {
		// Six equal levels: an error frame is in progress (someone else
		// destroyed this frame, or the attacker's controller reacted before
		// our window). Abandon the frame and hunt for the next SOF.
		d.stats.AbortedFrames++
		d.endFrame()
		return
	}
	if !payload {
		return // stuff bit: not part of the ID (Algorithm 1 lines 6-8)
	}

	if d.idBits < can.IDBits {
		d.idBits++
		d.meter.Charge(mcu.OpFrameStore)
		if !d.attackFlag && d.cfg.FSM.Decided() == fsm.Undecided {
			d.meter.ChargeFSMStep(d.cfg.FSM.Size())
			if d.cfg.FSM.Step(level) == fsm.Malicious {
				d.attackFlag = true
				d.detectedAt = d.idBits
			}
		}
		return
	}

	// Payload bits past the ID field: frame position 13 onward in unstuffed
	// terms. This is where Algorithm 1 launches or skips the counterattack.
	d.postID++
	if !d.cfg.ExtendedAware {
		// The paper's behavior: strike at the first bit after the ID (the
		// RTR slot for base frames).
		d.decideAtStrikePoint(t)
		return
	}
	switch {
	case d.postID == 1:
		// RTR (base) or SRR (extended): wait for the IDE bit to learn the
		// format before committing.
		return
	case d.postID == 2:
		// The IDE bit discriminates: dominant = base, recessive = extended.
		if level == can.Dominant {
			d.decideAtStrikePoint(t)
			return
		}
		d.extFlag = true
		if !d.attackFlag {
			// Benign extended frame: nothing more to learn.
			d.endFrame()
		}
		return
	case d.extFlag && d.postID == 2+can.ExtLowBits+1:
		// The extended RTR bit just passed: arbitration is over, strike.
		d.decideAtStrikePoint(t)
		return
	default:
		return
	}
}

// decideAtStrikePoint resolves a completed detection: suppress for our own
// transmissions, record the detection, and launch the prevention pull.
func (d *Defense) decideAtStrikePoint(t bus.BitTime) {
	if d.attackFlag && d.cfg.SelfTransmitting != nil && d.cfg.SelfTransmitting() {
		// Our own controller is sending this frame; its ID is legitimately
		// ours, not a spoof. (A concurrent same-ID spoof collides in the
		// data field and retries when our controller is idle — caught then.
		// If our controller lost arbitration earlier in this frame, it is
		// no longer transmitting and this branch does not fire.)
		d.attackFlag = false
		d.endFrame()
		return
	}
	if d.attackFlag {
		d.stats.Detections++
		d.stats.DetectionBitsSum += d.detectedAt
		if d.detectedAt > d.stats.DetectionBitsMax {
			d.stats.DetectionBitsMax = d.detectedAt
		}
		d.tel.Emit(int64(t), telemetry.EvDetect, int64(d.detectedAt), 0)
		if d.cfg.OnDetect != nil {
			d.cfg.OnDetect(t, d.detectedAt)
		}
	}
	if d.attackFlag && d.cfg.PreventionEnabled {
		d.meter.Charge(mcu.OpCounterattack)
		d.mux.EnableTX()
		d.mux.PullLow()
		d.counterattacking = true
		d.attackFlag = false
		d.pullRemaining = d.cfg.PullBits
		if d.pullRemaining <= 0 {
			d.pullRemaining = CounterattackEndPos - CounterattackStartPos // 7 bits
		}
		d.pullWidth = d.pullRemaining
		d.stats.Counterattacks++
		d.tel.Emit(int64(t), telemetry.EvPullStart, int64(d.pullWidth), 0)
		if d.cfg.OnCounterattack != nil {
			d.cfg.OnCounterattack(t)
		}
		return
	}
	// Benign frame (or detection-only mode): nothing further to learn from
	// this frame; return to SOF hunting. The next SOF cannot be mistaken
	// before the frame ends because bit stuffing keeps any mid-frame
	// recessive run under 6 bits, while SOF needs 11.
	d.endFrame()
}

// endFrame releases the pin and resumes SOF hunting.
func (d *Defense) endFrame() {
	d.mux.DisableTX()
	d.inFrame = false
	d.cntSOF = 0
	d.counterattacking = false
	d.attackFlag = false
}
