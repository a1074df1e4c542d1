package experiment

import (
	"fmt"
	"time"

	"michican/internal/attack"
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/core"
	"michican/internal/ids"
	"michican/internal/parrot"
)

// ComparisonRow is one measured row of the Table-I head-to-head: the same
// persistent spoofing attacker against an IDS, Parrot, and MichiCAN.
type ComparisonRow struct {
	// System names the defense.
	System string
	// DetectionBits is the latency from the attack's first SOF to the first
	// detection (IDS alert, Parrot spoof observation, MichiCAN FSM verdict).
	DetectionBits int64
	// Eradicated reports whether the attacker reached bus-off within the
	// run.
	Eradicated bool
	// BusOffBits is the time to bus-off (0 when never).
	BusOffBits int64
	// LeakedFrames counts complete attacker frames that reached the bus.
	LeakedFrames int
}

// String renders the row.
func (r ComparisonRow) String() string {
	erad := fmt.Sprintf("bus-off in %d bits", r.BusOffBits)
	if !r.Eradicated {
		erad = "NEVER eradicated"
	}
	return fmt.Sprintf("%-9s detection after %4d bits  leaked %3d frames  %s",
		r.System, r.DetectionBits, r.LeakedFrames, erad)
}

// DefenseComparison measures the Table-I properties head to head: the same
// persistent spoofer (victim ID 0x173) against each defense class on an
// otherwise identical bus. The structural result the paper argues: the IDS
// detects after a full frame and cannot eradicate; Parrot detects after a
// full frame and eradicates slowly by flooding; MichiCAN detects inside the
// ID field and eradicates in one clean campaign.
func DefenseComparison(cfg Config) ([]ComparisonRow, error) {
	cfg = cfg.Defaults()
	systems := []string{"IDS", "Parrot", "MichiCAN"}
	rows, err := Map(len(systems), cfg.Workers, func(i int) (ComparisonRow, error) {
		row, _, err := comparisonRun(cfg, systems[i])
		if err != nil {
			return row, fmt.Errorf("comparison %s: %w", systems[i], err)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// comparisonAttacker is the spoofer's node name in the comparison runs.
const comparisonAttacker = "spoofer"

// comparisonMeta carries the run instants the forensics parity check needs:
// the attack's first bit and the bus time the run stopped at.
type comparisonMeta struct {
	attackStart int64
	endAt       int64
}

func comparisonRun(cfg Config, system string) (ComparisonRow, comparisonMeta, error) {
	row := ComparisonRow{System: system, DetectionBits: -1}
	var meta comparisonMeta
	b := bus.New(cfg.Rate)
	if err := applyMode(b, cfg.Mode); err != nil {
		return row, meta, err
	}
	// The run polls its bus-off instant after every bit, and the IDS and
	// Parrot nodes pin every rung anyway: step every system exactly.
	b.SetLadder(bus.RungExact)

	// A benign peer provides ACKs and periodic legitimate traffic that the
	// IDS can train on.
	peer := core.NewECU(controller.New(controller.Config{Name: "peer", AutoRecover: true}), nil)
	peerFrame := can.Frame{ID: 0x0A0, Data: []byte{0x42}}
	peer.SetSchedule(core.Schedule{
		Period: cfg.Rate.Bits(20 * time.Millisecond),
		Frame:  func() can.Frame { return peerFrame },
	})
	b.Attach(peer)
	if cfg.Hub != nil {
		b.SetTelemetry(cfg.Hub, "bus")
		peer.SetTelemetry(cfg.Hub)
	}

	var detectedAt bus.BitTime = -1
	markDetect := func(t bus.BitTime) {
		if detectedAt < 0 {
			detectedAt = t
		}
	}

	switch system {
	case "IDS":
		b.Attach(ids.New(ids.Config{
			Name:         "ids",
			TrainingBits: cfg.Rate.Bits(500 * time.Millisecond),
			OnAlert:      func(a ids.Alert) { markDetect(a.At) },
		}))
		// The spoofed ECU exists but is undefended.
		b.Attach(controller.New(controller.Config{Name: "victim", AutoRecover: true}))
	case "Parrot":
		b.Attach(parrot.New(parrot.Config{
			Name:     "parrot",
			OwnID:    DefenderID,
			OnDetect: markDetect,
		}))
	case "MichiCAN":
		def, err := core.NewFor([]can.ID{0x0A0, DefenderID}, DefenderID, core.Config{
			Name:     "michican",
			OnDetect: func(t bus.BitTime, _ int) { markDetect(t) },
		})
		if err != nil {
			return row, meta, err
		}
		ecu := core.NewECU(controller.New(controller.Config{Name: "victim", AutoRecover: true}), def)
		if cfg.Hub != nil {
			ecu.SetTelemetry(cfg.Hub)
		}
		b.Attach(ecu)
	default:
		return row, meta, fmt.Errorf("unknown system %q", system)
	}

	// Warm-up (IDS training) with periodic peer traffic.
	b.Run(cfg.Rate.Bits(600 * time.Millisecond))

	// Attack: persistent spoof of the defender's ID.
	att := attack.NewFabrication(comparisonAttacker, DefenderID,
		[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 0)
	if cfg.Hub != nil {
		att.SetTelemetry(cfg.Hub)
	}
	attackStart := b.Now()
	meta.attackStart = int64(attackStart)
	b.Attach(att)
	busOffAt := bus.BitTime(-1)
	if b.RunUntil(func() bool { return att.Controller().Stats().BusOffEvents > 0 }, cfg.Rate.Bits(cfg.Duration)) {
		busOffAt = b.Now()
	}
	meta.endAt = int64(b.Now())

	if detectedAt >= 0 {
		row.DetectionBits = int64(detectedAt - attackStart)
	}
	row.LeakedFrames = att.Controller().Stats().TxSuccess
	if busOffAt >= 0 {
		row.Eradicated = true
		row.BusOffBits = int64(busOffAt - attackStart)
	}
	return row, meta, nil
}
