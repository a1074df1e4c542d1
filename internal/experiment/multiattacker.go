package experiment

import (
	"fmt"
	"time"

	"michican/internal/attack"
	"michican/internal/can"
	"michican/internal/trace"
)

// MultiAttackerRow is one point of the Sec. V-C multi-attacker sweep: the
// total bus-off time for A concurrent attackers (the paper measures 3515
// bits for A=3 and 4660 for A=4, and declares A ≥ 5 infeasible against the
// 5000-bit deadline budget of a 10 ms message class).
type MultiAttackerRow struct {
	// Attackers is A.
	Attackers int
	// TotalBits spans the first malicious SOF through the last attacker's
	// final destroyed attempt.
	TotalBits int64
	// Total is the wall-clock equivalent at the experiment rate.
	Total time.Duration
	// Feasible reports TotalBits ≤ DeadlineBudgetBits.
	Feasible bool
}

// DeadlineBudgetBits is the paper's feasibility budget: the minimum periodic
// deadline of 10 ms on a 500 kbit/s bus equals 5000 bit times.
const DeadlineBudgetBits = 5000

// String renders the row.
func (r MultiAttackerRow) String() string {
	verdict := "feasible"
	if !r.Feasible {
		verdict = "BUS INOPERABLE"
	}
	return fmt.Sprintf("A=%d  total bus-off = %5d bits (%v)  %s",
		r.Attackers, r.TotalBits, r.Total, verdict)
}

// MultiAttacker sweeps A = 1..maxA concurrent DoS attackers on consecutive
// IDs starting at 0x066 (the Experiment-5 topology generalized).
func MultiAttacker(cfg Config, maxA int) ([]MultiAttackerRow, error) {
	cfg = cfg.Defaults()
	if maxA < 1 {
		maxA = 5
	}
	rows := make([]MultiAttackerRow, 0, maxA)
	for a := 1; a <= maxA; a++ {
		row, err := runMultiAttacker(cfg, a)
		if err != nil {
			return nil, fmt.Errorf("A=%d: %w", a, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runMultiAttacker(cfg Config, a int) (MultiAttackerRow, error) {
	ids := make([]can.ID, a)
	for i := range ids {
		ids[i] = can.ID(0x066 + i)
	}
	attackers := make([]*attack.Attacker, a)
	for i, id := range ids {
		attackers[i] = attack.NewTargetedDoS(fmt.Sprintf("attacker-%03X", uint32(id)), id)
	}
	tb, err := newDefendedBus(busSpec{rate: cfg.Rate, mode: cfg.Mode, seed: cfg.Seed,
		attackers: attackers, hub: cfg.Hub, record: true})
	if err != nil {
		return MultiAttackerRow{}, err
	}
	allOff := func() bool {
		for _, at := range attackers {
			if at.Controller().Stats().BusOffEvents < 1 {
				return false
			}
		}
		return true
	}
	if !tb.bus.RunUntil(allOff, cfg.Rate.Bits(4*time.Second)) {
		return MultiAttackerRow{}, fmt.Errorf("not all attackers bused off")
	}
	tb.bus.Run(30)

	events := trace.Decode(tb.recorder.Bits(), tb.recorder.Start())
	var start, end int64 = 1 << 62, 0
	for _, id := range ids {
		eps := episodesOf(events, id)
		if len(eps) == 0 {
			return MultiAttackerRow{}, fmt.Errorf("no episode for %s", id)
		}
		if s := int64(eps[0].Start); s < start {
			start = s
		}
		if e := int64(eps[0].End); e > end {
			end = e
		}
	}
	total := end - start + 1
	return MultiAttackerRow{
		Attackers: a,
		TotalBits: total,
		Total:     cfg.Rate.Duration(total),
		Feasible:  total <= DeadlineBudgetBits,
	}, nil
}
