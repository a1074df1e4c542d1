package experiment

import (
	"fmt"
	"strings"
	"time"

	"michican/internal/attack"
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/trace"
)

// Fig6Attempt is one destroyed transmission attempt in the Experiment-5
// timeline (one colored pulse in the paper's Fig. 6).
type Fig6Attempt struct {
	// ID is the attacker whose attempt this is (0x066 brown / 0x067 yellow
	// in the paper).
	ID can.ID
	// Start and End delimit the attempt.
	Start, End bus.BitTime
	// Index is the attempt's ordinal for this ID (1-based).
	Index int
}

// Fig6Result is the decoded Experiment-5 interleaving pattern.
type Fig6Result struct {
	// Attempts is the full timeline, in bus order.
	Attempts []Fig6Attempt
	// BusOffBits66 and BusOffBits67 are the measured bus-off times.
	BusOffBits66, BusOffBits67 int64
}

// Pattern renders the timeline as a compact string of attempt owners, e.g.
// "666666666666666667676767..." — the visual signature of Fig. 6.
func (r Fig6Result) Pattern() string {
	var b strings.Builder
	for _, a := range r.Attempts {
		if a.ID == 0x066 {
			b.WriteByte('6')
		} else {
			b.WriteByte('7')
		}
	}
	return b.String()
}

// Render draws the paper's Fig. 6 as a two-row ASCII timeline: one column
// per destroyed attempt, a block in the row of the attempt's owner (the
// paper colors 0x066 brown and 0x067 yellow).
func (r Fig6Result) Render() string {
	var row66, row67 strings.Builder
	for _, a := range r.Attempts {
		if a.ID == 0x066 {
			row66.WriteRune('█')
			row67.WriteRune(' ')
		} else {
			row66.WriteRune(' ')
			row67.WriteRune('█')
		}
	}
	return "0x066 |" + row66.String() + "|\n0x067 |" + row67.String() + "|"
}

// Fig6 reproduces the Fig. 6 experiment: two DoS attackers (0x066, 0x067)
// launched together against the MichiCAN defender; the defense interleaves
// their bus-off campaigns exactly as the suspend-transmission rule dictates.
func Fig6(cfg Config) (Fig6Result, error) {
	res, _, err := fig6Scenario(cfg)
	return res, err
}

// fig6Scenario runs the Fig. 6 simulation and also returns its bus so
// differential tests can compare raw recorder bit streams. The simulation
// itself is one deterministic timeline (the interleaving under test *is*
// the serialization), so only the per-ID episode decoding fans out over the
// trial runner.
func fig6Scenario(cfg Config) (Fig6Result, *defendedBus, error) {
	cfg = cfg.Defaults()
	a66 := attack.NewTargetedDoS("attacker-66", 0x066)
	a67 := attack.NewTargetedDoS("attacker-67", 0x067)
	tb, err := newDefendedBus(busSpec{rate: cfg.Rate, mode: cfg.Mode, seed: cfg.Seed,
		attackers: []*attack.Attacker{a66, a67}, hub: cfg.Hub, record: true})
	if err != nil {
		return Fig6Result{}, nil, err
	}

	// Run until both attackers completed one full bus-off episode.
	done := func() bool {
		return a66.Controller().Stats().BusOffEvents >= 1 &&
			a67.Controller().Stats().BusOffEvents >= 1
	}
	if !tb.bus.RunUntil(done, cfg.Rate.Bits(time.Second)) {
		return Fig6Result{}, nil, fmt.Errorf("fig6: attackers not both bused off within 1s")
	}
	tb.bus.Run(30) // flush the tail

	events := trace.Decode(tb.recorder.Bits(), tb.recorder.Start())
	var res Fig6Result
	counts := map[can.ID]int{}
	for _, e := range events {
		if e.Kind != trace.ErrorEvent || !e.IDComplete {
			continue
		}
		if e.ID != 0x066 && e.ID != 0x067 {
			continue
		}
		counts[e.ID]++
		res.Attempts = append(res.Attempts, Fig6Attempt{
			ID: e.ID, Start: e.Start, End: e.End, Index: counts[e.ID],
		})
	}
	measured := []can.ID{0x066, 0x067}
	bits, err := Map(len(measured), cfg.Workers, func(i int) (int64, error) {
		eps := episodesOf(events, measured[i])
		if len(eps) == 0 {
			return 0, fmt.Errorf("fig6: no episode for %s", measured[i])
		}
		return eps[0].Bits(), nil
	})
	if err != nil {
		return res, &tb, err
	}
	res.BusOffBits66, res.BusOffBits67 = bits[0], bits[1]
	return res, &tb, nil
}
