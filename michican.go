// Package michican is a bit-accurate simulation and reference implementation
// of MichiCAN — the spoofing and denial-of-service protection for the
// Controller Area Network from "MichiCAN: Spoofing and Denial-of-Service
// Protection using Integrated CAN Controllers" (DSN 2025).
//
// The package is the public facade over the building blocks in internal/:
// a wired-AND bit-level CAN bus, a full ISO 11898-style protocol controller
// with fault confinement, the MichiCAN defense (arbitration-phase detection
// FSM plus the bit-banged counterattack), the attacker taxonomy of the
// paper's threat model, restbus traffic replay, the Parrot baseline, and the
// evaluation harness that regenerates every table and figure of the paper.
//
// Quick start:
//
//	n := michican.NewNetwork(michican.Rate50k)
//	victim, _ := n.AddECU(michican.ECUConfig{
//		Name: "brake", ID: 0x173, Period: 20 * time.Millisecond,
//		Defense: michican.DefenseFull,
//	})
//	n.AddSpoofAttacker("evil", 0x173)
//	n.Run(2 * time.Second)
//	fmt.Println(victim.DefenseStats().Counterattacks) // 32 per episode
package michican

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"michican/internal/attack"
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/core"
	"michican/internal/fsm"
	"michican/internal/ids"
	"michican/internal/mcu"
	"michican/internal/parrot"
	"michican/internal/restbus"
	"michican/internal/trace"
)

// Re-exported protocol types, so library users never import internal
// packages directly.
type (
	// ID is an 11-bit CAN 2.0A identifier.
	ID = can.ID
	// Frame is a CAN data frame (ID + 0-8 payload bytes).
	Frame = can.Frame
	// Rate is a CAN bus speed in bit/s.
	Rate = bus.Rate
	// BitTime indexes nominal bit times since simulation start.
	BitTime = bus.BitTime
	// Node is anything attachable to the simulated bus.
	Node = bus.Node
	// Event is a decoded bus episode (frame or destroyed attempt).
	Event = trace.Event
	// MCUProfile is a cycle-cost model for CPU-utilization studies.
	MCUProfile = mcu.Profile
)

// Standard bus speeds.
const (
	Rate50k  = bus.Rate50k
	Rate125k = bus.Rate125k
	Rate250k = bus.Rate250k
	Rate500k = bus.Rate500k
	Rate1M   = bus.Rate1M
)

// DefenseMode selects the MichiCAN configuration of an ECU (Sec. IV-A).
type DefenseMode uint8

const (
	// DefenseOff leaves the ECU unpatched.
	DefenseOff DefenseMode = iota
	// DefenseFull runs the full scenario: spoofing detection on the own ID
	// plus DoS detection on every unknown lower ID.
	DefenseFull
	// DefenseLight runs the light scenario: spoofing detection only.
	DefenseLight
	// DefenseDetectOnly detects (full ranges) but never counterattacks — an
	// IDS, for Table-I style comparisons.
	DefenseDetectOnly
)

// ECUConfig declares one legitimate ECU of the in-vehicle network.
type ECUConfig struct {
	// Name identifies the ECU.
	Name string
	// ID is the ECU's unique CAN identifier (one ID per ECU, Sec. IV-A).
	ID ID
	// Period, when positive, makes the ECU broadcast its message
	// periodically; zero means the application sends explicitly via Send.
	Period time.Duration
	// DLC is the payload length of the periodic message (default 8).
	DLC int
	// Defense selects the MichiCAN mode.
	Defense DefenseMode
	// ExtendedAware upgrades the defense to handle CAN 2.0B (29-bit ID)
	// attackers: flagged extended frames are struck after their full
	// arbitration field and eradicated; without it they are only starved
	// (see internal/core.Config.ExtendedAware).
	ExtendedAware bool
	// Profile selects the MCU cycle model for the defense (default
	// Arduino Due).
	Profile MCUProfile
}

// Network is a declarative builder for a simulated in-vehicle network. Add
// ECUs, attackers and traffic, then Run; the detection FSMs are generated
// from the declared IVN on first run (the paper's offline initial
// configuration).
type Network struct {
	rate     Rate
	bus      *bus.Bus
	recorder *trace.Recorder
	rng      *rand.Rand

	ecus     []*ECU
	extraIDs []can.ID
	started  bool
}

// Errors returned by the network builder.
var (
	// ErrStarted indicates a declaration after the first Run.
	ErrStarted = errors.New("michican: network already started")
	// ErrDuplicateECU indicates two ECUs claiming one CAN ID.
	ErrDuplicateECU = errors.New("michican: duplicate ECU ID")
)

// NewNetwork creates an empty network at the given bus speed.
func NewNetwork(rate Rate) *Network {
	b := bus.New(rate)
	rec := trace.NewRecorder()
	b.AttachTap(rec)
	return &Network{
		rate:     rate,
		bus:      b,
		recorder: rec,
		rng:      rand.New(rand.NewSource(1)),
	}
}

// Seed reseeds the network's internal randomness (restbus phases).
func (n *Network) Seed(seed int64) { n.rng = rand.New(rand.NewSource(seed)) }

// ECU is a declared legitimate node. Its defense and controller come to life
// when the network starts, as one core.ECU bus node that also owns the
// periodic send.
type ECU struct {
	cfg     ECUConfig
	net     *Network
	ctl     *controller.Controller
	defense *core.Defense
	// payload is the periodic message, rewritten in place every send: DLC
	// bytes led by a sequence number. Enqueue queues its plan's copy.
	payload []byte
}

// AddECU declares a legitimate ECU. All ECUs must be declared before the
// first Run so the detection FSMs can cover the complete IVN.
func (n *Network) AddECU(cfg ECUConfig) (*ECU, error) {
	if n.started {
		return nil, ErrStarted
	}
	if !cfg.ID.Valid() {
		return nil, fmt.Errorf("%w: %#x", can.ErrIDRange, uint32(cfg.ID))
	}
	for _, e := range n.ecus {
		if e.cfg.ID == cfg.ID {
			return nil, fmt.Errorf("%w: %s", ErrDuplicateECU, cfg.ID)
		}
	}
	if cfg.DLC == 0 {
		cfg.DLC = can.MaxDataLen
	}
	if cfg.DLC < 0 || cfg.DLC > can.MaxDataLen {
		return nil, fmt.Errorf("%w: %d", can.ErrDataLen, cfg.DLC)
	}
	e := &ECU{cfg: cfg, net: n, payload: make([]byte, cfg.DLC)}
	n.ecus = append(n.ecus, e)
	return e, nil
}

// AttachNode wires a custom bus.Node (an attacker, a monitor, a replayer).
// Nodes may be attached at any time, including mid-simulation — the paper's
// OBD-II plug-in scenario.
func (n *Network) AttachNode(node Node) { n.bus.Attach(node) }

// DetachNode removes a node (unplugging an OBD-II device).
func (n *Network) DetachNode(node Node) bool { return n.bus.Detach(node) }

// Start builds the detection FSMs from the declared IVN and attaches every
// ECU. It is called implicitly by the first Run.
func (n *Network) Start() error {
	if n.started {
		return nil
	}
	ids := make([]can.ID, 0, len(n.ecus)+len(n.extraIDs))
	for _, e := range n.ecus {
		ids = append(ids, e.cfg.ID)
	}
	ids = append(ids, n.extraIDs...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var ivn *fsm.IVN
	if len(ids) > 0 {
		v, err := fsm.NewIVN(ids)
		if err != nil {
			return err
		}
		ivn = v
	}
	for _, e := range n.ecus {
		if err := e.build(ivn); err != nil {
			return fmt.Errorf("ECU %s: %w", e.cfg.Name, err)
		}
		n.bus.Attach(e.node())
	}
	n.started = true
	return nil
}

// Run advances the simulation by the given duration, starting the network if
// necessary.
func (n *Network) Run(d time.Duration) error {
	if err := n.Start(); err != nil {
		return err
	}
	n.bus.RunFor(d)
	return nil
}

// RunBits advances the simulation by exactly b bit times.
func (n *Network) RunBits(b int64) error {
	if err := n.Start(); err != nil {
		return err
	}
	n.bus.Run(b)
	return nil
}

// RunUntil steps until the predicate holds or maxBits elapse; it reports
// whether the predicate fired.
func (n *Network) RunUntil(pred func() bool, maxBits int64) (bool, error) {
	if err := n.Start(); err != nil {
		return false, err
	}
	return n.bus.RunUntil(pred, maxBits), nil
}

// Now returns the current simulation time in bit times.
func (n *Network) Now() BitTime { return n.bus.Now() }

// Elapsed returns the simulated wall-clock time.
func (n *Network) Elapsed() time.Duration { return n.bus.Elapsed() }

// Rate returns the bus speed.
func (n *Network) Rate() Rate { return n.rate }

// Events decodes the recorded bus trace into frames and error episodes (the
// logic-analyzer view).
func (n *Network) Events() []Event {
	return trace.Decode(n.recorder.Bits(), n.recorder.Start())
}

// BusLoad returns the overall recorded bus load.
func (n *Network) BusLoad() float64 {
	events := n.Events()
	return trace.Load(events, int64(n.recorder.Len()))
}

// build constructs the ECU's controller and defense once the IVN is known.
func (e *ECU) build(ivn *fsm.IVN) error {
	e.ctl = controller.New(controller.Config{Name: e.cfg.Name, AutoRecover: true})
	if e.cfg.Defense == DefenseOff {
		return nil
	}
	idx := ivn.Index(e.cfg.ID)
	var (
		ds  *fsm.DetectionSet
		err error
	)
	if e.cfg.Defense == DefenseLight {
		ds, err = fsm.NewSpoofOnlySet(ivn, idx)
	} else {
		ds, err = fsm.NewDetectionSet(ivn, idx)
	}
	if err != nil {
		return err
	}
	cfg := core.Config{
		Name:          e.cfg.Name + "/michican",
		FSM:           fsm.Build(ds),
		Profile:       e.cfg.Profile,
		ExtendedAware: e.cfg.ExtendedAware,
	}
	if e.cfg.Defense == DefenseDetectOnly {
		e.defense, err = core.NewDetectionOnly(cfg)
	} else {
		e.defense, err = core.New(cfg)
	}
	return err
}

// node wires the built ECU into one bus node. A periodic ECU's first send
// falls at a random bit within its first period.
func (e *ECU) node() *core.ECU {
	node := core.NewECU(e.ctl, e.defense)
	if e.cfg.Period > 0 {
		period := max(e.net.rate.Bits(e.cfg.Period), 1)
		node.SetSchedule(core.Schedule{Period: period, First: BitTime(e.net.rng.Int63n(period)), Frame: e.periodic})
	}
	return node
}

// periodic is the ECU's next periodic message, its sequence number bumped.
func (e *ECU) periodic() can.Frame {
	e.payload[0]++
	return can.Frame{ID: e.cfg.ID, Data: e.payload}
}

// Send schedules a frame for transmission from this ECU.
func (e *ECU) Send(f Frame) error {
	if e.ctl == nil {
		return errors.New("michican: network not started")
	}
	return e.ctl.Enqueue(f)
}

// TEC returns the ECU's transmit error counter.
func (e *ECU) TEC() int { return e.ctl.TEC() }

// BusOff reports whether the ECU's controller is in bus-off.
func (e *ECU) BusOff() bool { return e.ctl.State() == controller.BusOff }

// TransmittedFrames returns how many frames the ECU sent successfully.
func (e *ECU) TransmittedFrames() int { return e.ctl.Stats().TxSuccess }

// DefenseStats returns the MichiCAN statistics (zero value when undefended).
func (e *ECU) DefenseStats() core.Stats {
	if e.defense == nil {
		return core.Stats{}
	}
	return e.defense.Stats()
}

// Defense exposes the underlying defense (nil when undefended) for advanced
// inspection (metering, arming).
func (e *ECU) Defense() *core.Defense { return e.defense }

// Controller exposes the ECU's protocol controller.
func (e *ECU) Controller() *controller.Controller { return e.ctl }

// Attacker is a compromised node injected into the network.
type Attacker = attack.Attacker

// AddSpoofAttacker attaches a fabrication attacker persistently injecting
// the victim's CAN ID (Sec. III).
func (n *Network) AddSpoofAttacker(name string, victim ID) *Attacker {
	a := attack.NewFabrication(name, victim, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 0)
	n.bus.Attach(a)
	return a
}

// AddDoSAttacker attaches a traditional DoS flooder (ID 0x000).
func (n *Network) AddDoSAttacker(name string) *Attacker {
	a := attack.NewTraditionalDoS(name)
	n.bus.Attach(a)
	return a
}

// AddTargetedDoSAttacker attaches a targeted DoS on the given ID.
func (n *Network) AddTargetedDoSAttacker(name string, id ID) *Attacker {
	a := attack.NewTargetedDoS(name, id)
	n.bus.Attach(a)
	return a
}

// AddExtendedDoSAttacker attaches a DoS flooder using a CAN 2.0B (29-bit)
// identifier — the format-evasion attacker that an ExtendedAware defense
// eradicates and the paper's 11-bit design merely starves.
func (n *Network) AddExtendedDoSAttacker(name string, id ID) *Attacker {
	a := attack.New(name, &attack.Flood{Frame: Frame{ID: id, Extended: true, Data: make([]byte, 8)}})
	n.bus.Attach(a)
	return a
}

// DeclareLegitimate registers CAN IDs of legitimate ECUs that exist on the
// bus but are not modeled as Network ECUs (e.g. replayed restbus traffic).
// Defended ECUs exclude these IDs from their DoS detection ranges. Must be
// called before the first Run.
func (n *Network) DeclareLegitimate(ids ...ID) error {
	if n.started {
		return ErrStarted
	}
	n.extraIDs = append(n.extraIDs, ids...)
	return nil
}

// ParrotDefender is the Parrot baseline node (frame-level detection plus a
// flooding counterattack).
type ParrotDefender = parrot.Defender

// AddParrotDefender attaches the Parrot baseline defending the given own ID
// — useful for side-by-side comparisons on the same network.
func (n *Network) AddParrotDefender(name string, ownID ID) *ParrotDefender {
	p := parrot.New(parrot.Config{Name: name, OwnID: ownID})
	n.bus.Attach(p)
	return p
}

// IntrusionDetector is the frequency-based IDS baseline.
type IntrusionDetector = ids.IDS

// AddIDS attaches a frequency-based intrusion detection system that trains
// for the given duration and then raises alerts; listenOnly makes it
// electrically invisible (it will not ACK frames).
func (n *Network) AddIDS(name string, training time.Duration, listenOnly bool) *IntrusionDetector {
	d := ids.New(ids.Config{
		Name:         name,
		TrainingBits: n.rate.Bits(training),
		ListenOnly:   listenOnly,
	})
	n.bus.Attach(d)
	return d
}

// AddRestbus replays the synthetic communication matrix of one of the
// paper's test vehicles (two buses each; index 0 = powertrain, 1 = body) and
// declares its IDs legitimate. Must be called before the first Run. The
// matrix's periods are stretched, if needed, so the offered load stays under
// maxLoad at the network's rate (pass 1.0 for native periods).
func (n *Network) AddRestbus(v restbus.VehicleID, busIndex int, maxLoad float64) ([]ID, error) {
	if n.started {
		return nil, ErrStarted
	}
	buses := restbus.Buses(v)
	if busIndex < 0 || busIndex >= len(buses) {
		return nil, fmt.Errorf("michican: vehicle has %d buses", len(buses))
	}
	m := buses[busIndex]
	// Drop any messages colliding with declared ECU IDs (unique-ID rule).
	taken := make(map[can.ID]bool, len(n.ecus))
	for _, e := range n.ecus {
		taken[e.cfg.ID] = true
	}
	filtered := &restbus.Matrix{Vehicle: m.Vehicle, Bus: m.Bus}
	for _, msg := range m.Messages {
		if !taken[msg.ID] {
			filtered.Messages = append(filtered.Messages, msg)
		}
	}
	if maxLoad > 0 && filtered.Load(n.rate) > maxLoad {
		factor := filtered.Load(n.rate) / maxLoad
		scaled := &restbus.Matrix{Vehicle: m.Vehicle, Bus: m.Bus}
		for _, msg := range filtered.Messages {
			msg.Period = time.Duration(float64(msg.Period) * factor)
			scaled.Messages = append(scaled.Messages, msg)
		}
		filtered = scaled
	}
	n.bus.Attach(restbus.NewReplayer("restbus", filtered, n.rate, n.rng))
	ids := filtered.IDs()
	if err := n.DeclareLegitimate(ids...); err != nil {
		return nil, err
	}
	return ids, nil
}
