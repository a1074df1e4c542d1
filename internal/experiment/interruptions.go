package experiment

import (
	"fmt"

	"michican/internal/attack"
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/restbus"
	"michican/internal/trace"
)

// MeasureInterruptions extracts the Table-III c-terms from a recorded trace:
// for each attacker episode it counts the benign frames that landed between
// consecutive attacker attempts, classified by the attacker's
// fault-confinement region (attempts 1-16 error-active, 17-32 error-passive)
// and by priority relative to the attacker's ID. Counts are averaged per
// attempt, matching the formulas' per-attempt c_h,a / c_h,p / c_l,p.
func MeasureInterruptions(events []trace.Event, attacker can.ID) Interruptions {
	var inter Interruptions
	eps := episodesOf(events, attacker)
	if len(eps) == 0 {
		return inter
	}
	var haSum, hpSum, lpSum float64
	activeGaps, passiveGaps := 0, 0
	for _, ep := range eps {
		attempts := attemptsWithin(events, attacker, ep)
		for i := 1; i < len(attempts); i++ {
			hi, lo := benignBetween(events, attacker, attempts[i-1].End, attempts[i].Start)
			if i < 16 { // gap before attempt i+1; attacker still error-active
				haSum += float64(hi)
				// In the error-active region lower-priority frames cannot
				// interrupt (they lose arbitration); any observed ones are
				// counted toward the passive terms conservatively.
				lpSum += float64(lo)
				activeGaps++
			} else {
				hpSum += float64(hi)
				lpSum += float64(lo)
				passiveGaps++
			}
		}
	}
	if activeGaps > 0 {
		inter.HighPriorityActive = haSum / float64(activeGaps)
	}
	if passiveGaps > 0 {
		inter.HighPriorityPassive = hpSum / float64(passiveGaps)
		inter.LowPriorityPassive = lpSum / float64(passiveGaps)
	}
	return inter
}

// attemptsWithin returns the attacker's destroyed attempts inside an episode.
func attemptsWithin(events []trace.Event, attacker can.ID, ep Episode) []trace.Event {
	var out []trace.Event
	for _, e := range trace.AttemptsOf(events, attacker) {
		if e.Start >= ep.Start && e.End <= ep.End {
			out = append(out, e)
		}
	}
	return out
}

// benignBetween counts complete frames strictly between two bus times,
// split into higher-priority (ID below the attacker's) and lower-priority
// ones.
func benignBetween(events []trace.Event, attacker can.ID, from, to bus.BitTime) (hi, lo int) {
	for _, e := range events {
		if e.Kind != trace.FrameEvent {
			continue
		}
		if e.Start <= from || e.End >= to {
			continue
		}
		if e.Frame.ID < attacker {
			hi++
		} else {
			lo++
		}
	}
	return hi, lo
}

// Table3Validation compares the Table-III prediction — evaluated with
// interruption terms measured from the experiment-1 trace — against the
// empirical Table-II mean for the same run, closing the paper's
// theory-vs-measurement loop.
type Table3Validation struct {
	// Measured are the extracted c-terms.
	Measured Interruptions
	// PredictedBits is the Table-III total with those terms.
	PredictedBits float64
	// EmpiricalBits is the Table-II mean bus-off time of the same run.
	EmpiricalBits float64
}

// String renders the validation.
func (v Table3Validation) String() string {
	return fmt.Sprintf("measured c_h,a=%.2f c_h,p=%.2f c_l,p=%.2f → predicted %.0f bits, empirical %.0f bits (%.1f%% apart)",
		v.Measured.HighPriorityActive, v.Measured.HighPriorityPassive, v.Measured.LowPriorityPassive,
		v.PredictedBits, v.EmpiricalBits,
		100*abs(v.PredictedBits-v.EmpiricalBits)/v.EmpiricalBits)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ValidateTable3 runs experiment 1 (spoof with restbus), measures the
// interruption terms from its trace, and evaluates the theoretical model
// against the empirical mean.
func ValidateTable3(cfg Config) (Table3Validation, error) {
	cfg = cfg.Defaults()
	var out Table3Validation

	spoofer := attack.NewTargetedDoS("attacker", DefenderID)
	tb, err := newDefendedBus(busSpec{rate: cfg.Rate, mode: cfg.Mode, seed: cfg.Seed,
		matrix: restbus.Buses(restbus.VehD)[0], load: restbusTargetLoad,
		attackers: []*attack.Attacker{spoofer}, hub: cfg.Hub, record: true})
	if err != nil {
		return out, err
	}
	tb.bus.RunFor(cfg.Duration)

	events := trace.Decode(tb.recorder.Bits(), tb.recorder.Start())
	eps := completeEpisodes(episodesOf(events, DefenderID), tb.bus.Now())
	if len(eps) == 0 {
		return out, fmt.Errorf("validate: no complete episodes")
	}
	sum := 0.0
	for _, ep := range eps {
		sum += float64(ep.Bits())
	}
	out.EmpiricalBits = sum / float64(len(eps))
	out.Measured = MeasureInterruptions(events, DefenderID)
	rows := Table3(out.Measured)
	out.PredictedBits = rows[0].TotalBits // experiment-1 row
	return out, nil
}
