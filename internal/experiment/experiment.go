// Package experiment reproduces the paper's evaluation (Sec. V): the six
// bus-off experiments of Table II, the theoretical model of Table III, the
// Fig. 6 interleaving pattern, the detection-latency study, the
// multi-attacker sweep, the CPU-utilization study, the bus-load analysis
// with the Parrot comparison, and the on-vehicle ParkSense test. Each
// experiment returns typed rows so cmd/michican-bench and the benchmarks can
// print the paper's tables.
package experiment

import (
	"math"
	"time"

	"michican/internal/attack"
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/core"
	"michican/internal/restbus"
	"michican/internal/telemetry"
	"michican/internal/trace"
)

// Config carries the common experiment parameters (Sec. V-A defaults).
type Config struct {
	// Rate is the bus speed; the paper's online evaluation runs at 50 kbit/s.
	Rate bus.Rate
	// Duration is the recording length; the paper records 2 s per run.
	Duration time.Duration
	// Seed makes the randomized pieces (restbus phases) reproducible.
	Seed int64
	// Workers bounds the trial-runner pool (see Map): 0 means GOMAXPROCS,
	// 1 forces the serial reference path. Results are identical either way;
	// a set Hub forces 1 (see Defaults).
	Workers int
	// Mode is the stepping mode (see SteppingModes): "" is the full
	// fast-forward ladder, ModeExact the per-bit reference path for
	// golden-trace differential tests, and the modes between them the
	// michican-bench -mode ablations. An unknown mode is an error.
	Mode SteppingMode
	// Hub, when set, wires every participant of the defended bus (bus,
	// defender controller, defense, restbus, attackers) into the telemetry
	// collector. Every trial shares it, one trial at a time: node names
	// dedupe and the per-node metric instruments aggregate across trials.
	Hub *telemetry.Hub
}

// Defaults fills unset fields with the paper's values.
func (c Config) Defaults() Config {
	if c.Rate == 0 {
		c.Rate = bus.Rate50k
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Hub != nil {
		// Trials that share a hub run one after another: its gauges keep
		// the last write and its float folds depend on the order of adds,
		// so parallel trials would make the metrics differ run to run.
		c.Workers = 1
	}
	return c
}

// DefenderID is the CAN ID of the MichiCAN-equipped ECU in the paper's
// experiments (Sec. V-C).
const DefenderID can.ID = 0x173

// defenderSends is the defended ECU's own traffic in the paper's testbed
// (Sec. V-C): 0x173 every 25 ms from bit 0. The spoof experiments fight
// over exactly these sends.
func defenderSends(rate bus.Rate) core.Schedule {
	return core.Schedule{Period: rate.Bits(25 * time.Millisecond), Frame: defenderFrame}
}

// defenderPayload is shared by every send and never written: Enqueue queues
// the payload copy the frame's compiled plan holds.
var defenderPayload = []byte{0x11, 0x22}

func defenderFrame() can.Frame { return can.Frame{ID: DefenderID, Data: defenderPayload} }

// busSpec describes one Sec. V-C defended bus: the MichiCAN-defended 0x173
// ECU, the Veh.-D restbus replay and the attackers. Its fields are the ones
// the paper's experiments, the fleet vehicle and the throughput scenario set
// differently.
type busSpec struct {
	rate bus.Rate
	// mode is the stepping mode ("" is the full ladder).
	mode SteppingMode
	// seed drives the restbus phases.
	seed int64
	// matrix is the restbus traffic (nil: no restbus). DefenderID and the
	// IDs in exclude are taken off it, and its periods are stretched to
	// offer load.
	matrix  *restbus.Matrix
	load    float64
	exclude []can.ID
	// sends gives the defender its periodic 0x173 (defenderSends).
	sends bool
	// attackers attach after the restbus, in order.
	attackers []*attack.Attacker
	// hub, when set, receives every participant's telemetry.
	hub *telemetry.Hub
	// record attaches a logic-analyzer recorder.
	record bool
	// plans is the compiled-plan cache every controller resolves frames
	// through (nil: each compiles privately).
	plans *controller.PlanSource
	// warm precompiles the restbus's whole rolling-counter rotation, so a
	// timed window never pays a first-sight plan build.
	warm bool
}

// defendedBus is a bus built by newDefendedBus. restbus and recorder are
// nil when the spec has none.
type defendedBus struct {
	bus       *bus.Bus
	hub       *telemetry.Hub
	defender  *controller.Controller
	defense   *core.Defense
	restbus   *restbus.Replayer
	attackers []*attack.Attacker
	recorder  *trace.Recorder
}

// newDefendedBus builds spec's bus. The defender's detection FSM covers
// everything below 0x173 that is not on the cleaned matrix, plus 0x173
// itself. The order is fixed: the bus and its ladder, the matrix, the
// defended ECU; then the ECU, the restbus and the attackers attach, the
// plan cache is wired, and last the hub takes every participant in attach
// order. Probe registration order fixes the node IDs a recorded stream
// carries, so this order is part of every stored stream's identity.
func newDefendedBus(spec busSpec) (defendedBus, error) {
	b := defendedBus{bus: bus.New(spec.rate), hub: spec.hub, attackers: spec.attackers}
	if err := applyMode(b.bus, spec.mode); err != nil {
		return defendedBus{}, err
	}
	if spec.record {
		b.recorder = trace.NewRecorder()
		b.bus.AttachTap(b.recorder)
	}
	matrix := spec.matrix
	ids := []can.ID{DefenderID}
	if matrix != nil {
		matrix = cleanMatrix(matrix, append([]can.ID{DefenderID}, spec.exclude...))
		matrix = scaleMatrixToLoad(matrix, spec.rate, spec.load)
		ids = append(ids, matrix.IDs()...)
	}
	ecu, err := defendedECU(ids)
	if err != nil {
		return defendedBus{}, err
	}
	if spec.sends {
		ecu.SetSchedule(defenderSends(spec.rate))
	}
	b.defender, b.defense = ecu.Controller, ecu.Defense

	b.bus.Attach(ecu)
	if matrix != nil {
		b.restbus = restbus.NewReplayer("restbus", matrix, spec.rate, newRand(spec.seed))
		b.bus.Attach(b.restbus)
	}
	for _, a := range b.attackers {
		b.bus.Attach(a)
	}
	b.sharePlans(spec.plans)
	if spec.warm && b.restbus != nil {
		b.restbus.WarmSplice(256)
	}
	if spec.hub != nil {
		b.bus.SetTelemetry(spec.hub, "bus")
		ecu.SetTelemetry(spec.hub)
		if b.restbus != nil {
			b.restbus.SetTelemetry(spec.hub)
		}
		for _, a := range b.attackers {
			a.SetTelemetry(spec.hub)
		}
	}
	return b, nil
}

// defendedECU builds the paper's MichiCAN-defended 0x173 ECU for the
// legitimate ID list ids, which must include DefenderID.
func defendedECU(ids []can.ID) (*core.ECU, error) {
	def, err := core.NewFor(ids, DefenderID, core.Config{Name: "michican"})
	if err != nil {
		return nil, err
	}
	return core.NewECU(controller.New(controller.Config{Name: "defender", AutoRecover: true}), def), nil
}

// sharePlans wires a plan cache into every controller on the bus (nil:
// each compiles privately).
func (b *defendedBus) sharePlans(src *controller.PlanSource) {
	b.defender.SetPlanSource(src)
	if b.restbus != nil {
		b.restbus.SharePlans(src)
	}
	for _, a := range b.attackers {
		a.SharePlans(src)
	}
}

// restbusTargetLoad is the benign bus load replayed in the restbus
// experiments. The paper replays Veh.-D traffic (captured on a 500 kbit/s
// vehicle bus) onto the 50 kbit/s prototype; its Table-II results show only
// occasional interruptions of the bus-off attempts, i.e. a light effective
// load. Replaying the matrix at native periods would offer ~400% load at
// 50 kbit/s, so we stretch the periods to a realistic prototype load.
const restbusTargetLoad = 0.20

// scaleMatrixToLoad stretches message periods so the matrix offers
// approximately the target load at the given rate.
func scaleMatrixToLoad(m *restbus.Matrix, rate bus.Rate, target float64) *restbus.Matrix {
	load := m.Load(rate)
	if load <= target || target <= 0 {
		return m
	}
	factor := load / target
	// Source periods are whole multiples of the 10 ms scheduling base, so
	// the matrix is harmonic: the lcm of the per-message period bits stays
	// small. Stretching each period by a float factor and rounding
	// per message would shatter that structure (near-coprime period bits,
	// lcm in the billions), so the base itself is stretched and quantized
	// to whole bit times once, and every period scales by its integer
	// multiple of the base: the load lands within a bit-time rounding of
	// the target and the harmony is exact.
	const periodBase = 10 * time.Millisecond
	stretch := int64(math.Round(factor * float64(rate.Bits(periodBase))))
	if stretch < 1 {
		stretch = 1
	}
	out := &restbus.Matrix{Vehicle: m.Vehicle, Bus: m.Bus}
	for _, msg := range m.Messages {
		k := int64((msg.Period + periodBase/2) / periodBase)
		if k < 1 {
			k = 1
		}
		msg.Period = time.Duration(k*stretch) * rate.BitDuration()
		out.Messages = append(out.Messages, msg)
	}
	return out
}

// cleanMatrix removes messages whose IDs collide with the defender or the
// attackers (a legitimate ECU never shares an attacker's ID).
func cleanMatrix(m *restbus.Matrix, exclude []can.ID) *restbus.Matrix {
	bad := make(map[can.ID]bool, len(exclude))
	for _, id := range exclude {
		bad[id] = true
	}
	out := &restbus.Matrix{Vehicle: m.Vehicle, Bus: m.Bus}
	for _, msg := range m.Messages {
		if !bad[msg.ID] {
			out.Messages = append(out.Messages, msg)
		}
	}
	return out
}

// Episode is one complete bus-off cycle of a single attacker ID: the run of
// destroyed transmission attempts from the first malicious SOF to the final
// attempt before the attacker enters bus-off.
type Episode struct {
	// ID is the attacker's CAN ID.
	ID can.ID
	// Attempts counts the destroyed transmissions (32 in the clean case).
	Attempts int
	// Start and End delimit the episode on the bus.
	Start, End bus.BitTime
}

// Bits returns the episode's bus-off time in bits (Sec. V-C definition:
// first bit of the malicious message through the end of the final error
// episode).
func (e Episode) Bits() int64 { return int64(e.End-e.Start) + 1 }

// episodesOf groups the destroyed attempts of one attacker ID into bus-off
// episodes. Attempts separated by at least half the bus-off recovery window
// (128·11 bits) belong to different episodes — between episodes the attacker
// sits in bus-off.
func episodesOf(events []trace.Event, id can.ID) []Episode {
	attempts := trace.AttemptsOf(events, id)
	if len(attempts) == 0 {
		return nil
	}
	const gap = controller.RecoverySequences * controller.RecoveryIdleBits / 2
	var eps []Episode
	cur := Episode{ID: id, Attempts: 1, Start: attempts[0].Start, End: attempts[0].End}
	for _, a := range attempts[1:] {
		if int64(a.Start-cur.End) > gap {
			eps = append(eps, cur)
			cur = Episode{ID: id, Attempts: 0, Start: a.Start}
		}
		cur.Attempts++
		cur.End = a.End
	}
	eps = append(eps, cur)
	return eps
}

// completeEpisodes drops a trailing episode that was still in progress when
// the recording stopped (fewer than the full 32 attempts and ending near the
// recording's edge).
func completeEpisodes(eps []Episode, recordingEnd bus.BitTime) []Episode {
	if len(eps) == 0 {
		return nil
	}
	last := eps[len(eps)-1]
	// An in-flight episode ends within one recovery window of the edge.
	const margin = controller.RecoverySequences * controller.RecoveryIdleBits
	if last.Attempts < 32 && int64(recordingEnd-last.End) < margin {
		return eps[:len(eps)-1]
	}
	return eps
}
