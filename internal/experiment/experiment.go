// Package experiment reproduces the paper's evaluation (Sec. V): the six
// bus-off experiments of Table II, the theoretical model of Table III, the
// Fig. 6 interleaving pattern, the detection-latency study, the
// multi-attacker sweep, the CPU-utilization study, the bus-load analysis
// with the Parrot comparison, and the on-vehicle ParkSense test. Each
// experiment returns typed rows so cmd/michican-bench and the benchmarks can
// print the paper's tables.
package experiment

import (
	"fmt"
	"math"
	"time"

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
	// Hub, when set, wires every testbed participant (bus, defender
	// controller, defense, restbus, attackers) into the telemetry collector.
	// Every trial shares it, one trial at a time: node names dedupe and the
	// per-node metric instruments aggregate across trials.
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

// testbed is the Sec. V-C topology: a MichiCAN-defended ECU plus optional
// restbus traffic and a logic-analyzer recorder.
type testbed struct {
	bus      *bus.Bus
	defender *controller.Controller
	defense  *core.Defense
	restbus  *restbus.Replayer
	recorder *trace.Recorder
}

// newTestbed builds the defended bus. legitimate lists every benign CAN ID
// other than the defender's own (the restbus matrix when present); the
// defender's detection FSM covers everything below 0x173 that is not
// legitimate, plus 0x173 itself. With sends the defender carries its
// periodic 0x173 (defenderSends).
func newTestbed(cfg Config, matrix *restbus.Matrix, exclude []can.ID, sends bool) (*testbed, error) {
	tb := &testbed{bus: bus.New(cfg.Rate)}
	if err := applyMode(tb.bus, cfg.Mode); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	tb.recorder = trace.NewRecorder()
	tb.bus.AttachTap(tb.recorder)

	ids := []can.ID{DefenderID}
	if matrix != nil {
		matrix = cleanMatrix(matrix, append([]can.ID{DefenderID}, exclude...))
		matrix = scaleMatrixToLoad(matrix, cfg.Rate, restbusTargetLoad)
		ids = append(ids, matrix.IDs()...)
	}
	var err error
	if tb.defense, err = core.NewFor(ids, DefenderID, core.Config{Name: "michican"}); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	tb.defender = controller.New(controller.Config{Name: "defender", AutoRecover: true})
	ecu := core.NewECU(tb.defender, tb.defense)
	if sends {
		ecu.SetSchedule(defenderSends(cfg.Rate))
	}
	tb.bus.Attach(ecu)

	if matrix != nil {
		tb.restbus = restbus.NewReplayer("restbus", matrix, cfg.Rate, newRand(cfg.Seed))
		tb.bus.Attach(tb.restbus)
	}
	if cfg.Hub != nil {
		tb.bus.SetTelemetry(cfg.Hub, "bus")
		tb.defender.SetTelemetry(cfg.Hub)
		tb.defense.SetTelemetry(cfg.Hub)
		if tb.restbus != nil {
			tb.restbus.SetTelemetry(cfg.Hub)
		}
	}
	return tb, nil
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

// buildDefendedECU assembles the standard MichiCAN-defended 0x173 ECU for
// the given legitimate ID list (which must include DefenderID) and returns
// the defense plus the composite bus node.
func buildDefendedECU(ids []can.ID) (*core.Defense, bus.Node, error) {
	def, err := core.NewFor(ids, DefenderID, core.Config{Name: "michican"})
	if err != nil {
		return nil, nil, fmt.Errorf("experiment: %w", err)
	}
	ctl := controller.New(controller.Config{Name: "defender", AutoRecover: true})
	return def, core.NewECU(ctl, def), nil
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
