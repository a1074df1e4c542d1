package experiment

import (
	"fmt"
	"time"

	"michican/internal/forensics"
	"michican/internal/stats"
	"michican/internal/telemetry"
)

// Table2Forensics runs one Table-II experiment (1-6) with a forensics engine
// subscribed to a streaming (retention-off) telemetry hub and returns the
// trace-derived rows alongside rows regenerated from the reconstructed
// incidents alone. The two row sets must match bit-for-bit — the parity
// tests assert it across every stepping mode — which makes the telemetry
// stream a third source of truth for the paper's bus-off timings, next to
// the exact and fast-forward wire traces. Any Hub already set in cfg is
// replaced by the engine's own.
func Table2Forensics(cfg Config, exp int) (traceRows, incidentRows []Table2Row, err error) {
	cfg = cfg.Defaults()
	var spec experimentSpec
	found := false
	for _, s := range table2Specs() {
		if s.exp == exp {
			spec, found = s, true
		}
	}
	if !found {
		return nil, nil, fmt.Errorf("experiment: unknown experiment number %d", exp)
	}

	stack := NewStack(telemetry.NewHub(), StackConfig{Forensics: true})
	defer stack.Close()
	cfg.Hub = stack.Hub

	traceRows, tb, err := runTable2Scenario(cfg, spec)
	if err != nil {
		return nil, nil, err
	}
	end := int64(tb.bus.Now())
	if err := stack.Finalize(end); err != nil {
		return nil, nil, err
	}
	eng := stack.Forensics

	for _, id := range spec.measured {
		incs := forensics.Complete(eng.IncidentsOf(id), end)
		if len(incs) == 0 {
			return nil, nil, fmt.Errorf("no complete incidents for %s", id)
		}
		var acc stats.Accumulator
		for _, inc := range incs {
			acc.Add(float64(inc.Bits()))
		}
		bits2dur := func(b float64) time.Duration { return cfg.Rate.Duration(int64(b)) }
		incidentRows = append(incidentRows, Table2Row{
			Exp:        spec.exp,
			AttackerID: id,
			Restbus:    spec.restbus,
			Episodes:   acc.N(),
			Mean:       bits2dur(acc.Mean()),
			Std:        bits2dur(acc.StdDev()),
			Max:        bits2dur(acc.Max()),
			MeanBits:   acc.Mean(),
		})
	}
	return traceRows, incidentRows, nil
}

// ComparisonForensics runs the Table-I MichiCAN arm once with a forensics
// engine attached and returns the hand-instrumented row alongside the row
// derived from the engine's view of the same run: detection latency from the
// first EvDetect, leaked frames from the attacker's EvTxSuccess count, and
// the bus-off instant from EvBusOff. The derived row must equal the
// hand-computed one field for field.
func ComparisonForensics(cfg Config) (hand, derived ComparisonRow, err error) {
	cfg = cfg.Defaults()
	stack := NewStack(telemetry.NewHub(), StackConfig{Forensics: true})
	defer stack.Close()
	cfg.Hub = stack.Hub

	hand, meta, err := comparisonRun(cfg, "MichiCAN")
	if err != nil {
		return hand, derived, err
	}
	if err := stack.Finalize(meta.endAt); err != nil {
		return hand, derived, err
	}
	eng := stack.Forensics

	derived = ComparisonRow{System: hand.System, DetectionBits: -1}
	if at := eng.FirstDetectionAt(); at >= 0 {
		derived.DetectionBits = at - meta.attackStart
	}
	derived.LeakedFrames = eng.TxSuccessCount(comparisonAttacker)
	if at := eng.FirstBusOffAt(comparisonAttacker); at >= 0 {
		derived.Eradicated = true
		// The hand-instrumented loop polls the attacker's stats after the
		// bus core steps past the bus-off bit, so its timestamp is one bit
		// after the EvBusOff emission.
		derived.BusOffBits = at + 1 - meta.attackStart
	}
	return hand, derived, nil
}
