package experiment

import (
	"fmt"
	"time"

	"michican/internal/attack"
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/parrot"
	"michican/internal/restbus"
	"michican/internal/trace"
)

// BusLoadRow compares the network overhead of a defense system (Sec. V-E):
// the bus load at rest, the peak load during a counterattack window, and the
// time to eradicate the attacker.
type BusLoadRow struct {
	// System is "MichiCAN", "Parrot", or "none".
	System string
	// BaselineLoad is the benign bus load before the attack.
	BaselineLoad float64
	// PeakWindowLoad is the highest windowed load observed during the
	// counterattack (window = AvgFrameBits·8 bits).
	PeakWindowLoad float64
	// BusOffBits is the time to bus the attacker off (0 when never).
	BusOffBits int64
	// AttackerSilenced reports whether the attacker reached bus-off.
	AttackerSilenced bool
	// VictimMissRate is the restbus deadline-miss rate over the whole run —
	// the downstream harm of both the attack and the defense's own traffic.
	VictimMissRate float64
}

// String renders the row.
func (r BusLoadRow) String() string {
	off := "attacker silenced"
	if !r.AttackerSilenced {
		off = "attacker ACTIVE"
	}
	return fmt.Sprintf("%-9s baseline=%5.1f%%  peak=%5.1f%%  bus-off=%5d bits  miss-rate=%5.1f%%  %s",
		r.System, r.BaselineLoad*100, r.PeakWindowLoad*100, r.BusOffBits,
		r.VictimMissRate*100, off)
}

// BusLoad reproduces the Sec. V-E analysis: a spoofing attacker against the
// 0x173 ECU on a restbus-loaded 50 kbit/s bus, defended by (a) MichiCAN,
// (b) Parrot, and (c) nothing. The paper's headline: MichiCAN causes only a
// short load spike around the ~25 ms bus-off episode, while Parrot's flood
// drives the bus to ≈97.7% for the whole counterattack.
func BusLoad(cfg Config) ([]BusLoadRow, error) {
	cfg = cfg.Defaults()
	systems := []string{"none", "MichiCAN", "Parrot"}
	rows := make([]BusLoadRow, 0, len(systems))
	for _, sys := range systems {
		row, err := busLoadRun(cfg, sys)
		if err != nil {
			return nil, fmt.Errorf("busload %s: %w", sys, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func busLoadRun(cfg Config, system string) (BusLoadRow, error) {
	matrix := cleanMatrix(restbus.Buses(restbus.VehD)[0], []can.ID{DefenderID})
	matrix = scaleMatrixToLoad(matrix, cfg.Rate, restbusTargetLoad)

	b := bus.New(cfg.Rate)
	if err := applyMode(b, cfg.Mode); err != nil {
		return BusLoadRow{}, err
	}
	rec := trace.NewRecorder()
	b.AttachTap(rec)
	replay := restbus.NewReplayer("restbus", matrix, cfg.Rate, newRand(cfg.Seed))
	b.Attach(replay)

	var attackerCtl *controller.Controller
	att := attack.NewFabrication("attacker", DefenderID, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 0)
	attackerCtl = att.Controller()

	switch system {
	case "MichiCAN":
		ecu, err := defendedECU(append(matrix.IDs(), DefenderID))
		if err != nil {
			return BusLoadRow{}, err
		}
		b.Attach(ecu)
	case "Parrot":
		b.Attach(parrot.New(parrot.Config{Name: "parrot", OwnID: DefenderID}))
	case "none":
		// The spoofed ECU exists but has no defense: a plain controller.
		b.Attach(controller.New(controller.Config{Name: "victim", AutoRecover: true}))
	default:
		return BusLoadRow{}, fmt.Errorf("unknown system %q", system)
	}

	// Phase 1: benign only, to measure the baseline load.
	baselineBits := cfg.Rate.Bits(500 * time.Millisecond)
	b.Run(baselineBits)
	baselineEvents := trace.Decode(rec.Bits(), rec.Start())
	baseline := trace.Load(baselineEvents, int64(rec.Len()))

	// Phase 2: the attack. Track when the attacker first enters bus-off.
	attackStart := b.Now()
	b.Attach(att)
	busOffAt := bus.BitTime(-1)
	total := cfg.Rate.Bits(cfg.Duration)
	for i := int64(0); i < total; i++ {
		b.Step()
		if busOffAt < 0 && attackerCtl.Stats().BusOffEvents > 0 {
			busOffAt = b.Now()
		}
	}

	events := trace.Decode(rec.Bits(), rec.Start())
	window := AvgFrameBits * 8
	loads := trace.WindowedLoad(rec.Bits(), events, rec.Start(), window)
	peak := 0.0
	for _, l := range loads[int(baselineBits)/window:] {
		if l > peak {
			peak = l
		}
	}

	row := BusLoadRow{
		System:         system,
		BaselineLoad:   baseline,
		PeakWindowLoad: peak,
		VictimMissRate: replay.MissRate(),
	}
	if busOffAt >= 0 {
		row.AttackerSilenced = true
		// Bus-off time per the paper: from the first bit of the malicious
		// message to the end of the campaign. For Parrot the first spoofed
		// instance completes untouched (its detection latency) and still
		// counts.
		for _, e := range events {
			if e.ID == DefenderID && e.IDComplete && e.Start >= attackStart {
				row.BusOffBits = int64(busOffAt - e.Start)
				break
			}
		}
	}
	return row, nil
}
