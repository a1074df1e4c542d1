package experiment

import (
	"fmt"
	"time"

	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/core"
	"michican/internal/fsm"
	"michican/internal/mcu"
	"michican/internal/restbus"
)

// CPURow is one measurement of the Sec. V-D study: the defense's CPU
// utilization on a given MCU, bus speed, vehicle bus, and scenario.
type CPURow struct {
	// MCU names the profile.
	MCU string
	// Rate is the bus speed.
	Rate bus.Rate
	// Vehicle and Bus identify the communication matrix.
	Vehicle, Bus string
	// Scenario is "full" or "light" (Sec. IV-A).
	Scenario string
	// FSMStates is the deployed FSM's complexity.
	FSMStates int
	// IdleLoad is the handler's utilization during bus-idle bits and
	// ActiveLoad during frame-processing bits; CombinedLoad is their average
	// (the paper's Sec. V-D reporting convention). TimeWeightedLoad is total
	// cycles over total available cycles for reference.
	IdleLoad, ActiveLoad, CombinedLoad, TimeWeightedLoad float64
	// WorstBitCycles is the most expensive single handler invocation.
	WorstBitCycles int64
	// Reliable reports whether the worst invocation fits one bit time (the
	// feasibility condition that confines the Arduino Due to ≤125 kbit/s).
	Reliable bool
}

// String renders the row.
func (r CPURow) String() string {
	rel := "reliable"
	if !r.Reliable {
		rel = "OVERRUNS BIT TIME"
	}
	return fmt.Sprintf("%-38s %-9v %-10s %-5s states=%-4d idle=%4.1f%% active=%4.1f%% combined=%4.1f%%  worst=%4d cyc  %s",
		r.MCU, r.Rate, r.Bus, r.Scenario, r.FSMStates,
		r.IdleLoad*100, r.ActiveLoad*100, r.CombinedLoad*100, r.WorstBitCycles, rel)
}

// CPUUtilization reproduces Sec. V-D: for each of the eight vehicle buses
// the FSM of ECU_N (the lowest-priority, largest detection range — maximum
// coverage, as the paper deploys) is installed on the given MCU at the given
// bus speed, restbus traffic is replayed, and the handler's cycle
// consumption is metered over the run.
func CPUUtilization(cfg Config, profile mcu.Profile, rate bus.Rate, light bool) ([]CPURow, error) {
	cfg = cfg.Defaults()
	scenario := "full"
	if light {
		scenario = "light"
	}
	var rows []CPURow
	for _, veh := range restbus.Vehicles() {
		for _, matrix := range restbus.Buses(veh) {
			row, err := cpuRun(cfg, profile, rate, matrix, light)
			if err != nil {
				return nil, fmt.Errorf("cpu %s/%s: %w", matrix.Vehicle, matrix.Bus, err)
			}
			row.Scenario = scenario
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func cpuRun(cfg Config, profile mcu.Profile, rate bus.Rate, matrix *restbus.Matrix, light bool) (CPURow, error) {
	// ECU_N is the matrix's highest ID; its detection range covers the whole
	// space below it.
	ids := matrix.IDs()
	ownID := ids[len(ids)-1]
	v, err := fsm.NewIVN(ids)
	if err != nil {
		return CPURow{}, err
	}
	var ds *fsm.DetectionSet
	if light {
		ds, err = fsm.NewSpoofOnlySet(v, v.Size()-1)
	} else {
		ds, err = fsm.NewDetectionSet(v, v.Size()-1)
	}
	if err != nil {
		return CPURow{}, err
	}
	machine := fsm.Build(ds)
	def, err := core.New(core.Config{Name: "michican", FSM: machine, Profile: profile})
	if err != nil {
		return CPURow{}, err
	}

	b := bus.New(rate)
	if err := applyMode(b, cfg.Mode); err != nil {
		return CPURow{}, err
	}
	defCtl := controller.New(controller.Config{Name: "defender", AutoRecover: true})
	b.Attach(core.NewECU(defCtl, def))
	// Replay the matrix minus the defender's own message (the other ECUs);
	// keep the offered load realistic for the configured rate.
	others := cleanMatrix(matrix, []can.ID{ownID})
	others = scaleMatrixToLoad(others, rate, 0.40) // paper: ~40% observed load
	b.Attach(restbus.NewReplayer("restbus", others, rate, newRand(cfg.Seed)))

	duration := cfg.Duration
	if duration > time.Second {
		duration = time.Second // CPU study needs less wall time per bus
	}
	b.RunFor(duration)

	meter := def.Meter()
	elapsed := int64(b.Now())
	worst := meter.MaxCyclesPerBit()
	return CPURow{
		MCU:              profile.Name,
		Rate:             rate,
		Vehicle:          matrix.Vehicle,
		Bus:              matrix.Bus,
		FSMStates:        machine.Size(),
		IdleLoad:         meter.IdleLoad(int(rate)),
		ActiveLoad:       meter.ActiveLoad(int(rate)),
		CombinedLoad:     meter.CombinedLoad(int(rate)),
		TimeWeightedLoad: meter.Utilization(elapsed, int(rate)),
		WorstBitCycles:   worst,
		Reliable:         profile.FitsBitTime(worst, int(rate)),
	}, nil
}
