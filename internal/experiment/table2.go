package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"michican/internal/attack"
	"michican/internal/can"
	"michican/internal/restbus"
	"michican/internal/stats"
	"michican/internal/trace"
)

// newRand builds a deterministic generator for one experiment run.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Table2Row is one row of Table II: empirical bus-off time for one attacker
// ID in one of the six experiments.
type Table2Row struct {
	// Exp is the experiment number (1-6).
	Exp int
	// AttackerID is the malicious CAN ID this row measures.
	AttackerID can.ID
	// Restbus reports whether benign Veh.-D traffic was replayed.
	Restbus bool
	// Episodes is the number of complete bus-off cycles measured.
	Episodes int
	// Mean, Std, Max summarize the bus-off time.
	Mean, Std, Max time.Duration
	// MeanBits is the mean bus-off time in bit times.
	MeanBits float64
}

// String renders the row in the paper's format.
func (r Table2Row) String() string {
	rb := "×"
	if r.Restbus {
		rb = "✓"
	}
	return fmt.Sprintf("Exp %d  %s  restbus=%s  n=%2d  μ=%6.1fms  σ=%5.2fms  max=%6.1fms",
		r.Exp, r.AttackerID, rb, r.Episodes,
		float64(r.Mean)/float64(time.Millisecond),
		float64(r.Std)/float64(time.Millisecond),
		float64(r.Max)/float64(time.Millisecond))
}

// experimentSpec describes one of the six Table-II experiments.
type experimentSpec struct {
	exp       int
	restbus   bool
	attackers func() []*attack.Attacker
	measured  []can.ID // attacker IDs to report rows for
}

// table2Specs builds the six experiment descriptions (Sec. V-C):
//
//	1: spoof 0x173 with restbus     2: spoof 0x173 alone
//	3: DoS 0x064 with restbus       4: DoS 0x064 alone
//	5: two attackers 0x066 + 0x067  6: one attacker toggling 0x050/0x051
func table2Specs() []experimentSpec {
	single := func(id can.ID) func() []*attack.Attacker {
		return func() []*attack.Attacker {
			return []*attack.Attacker{attack.NewTargetedDoS("attacker", id)}
		}
	}
	return []experimentSpec{
		{exp: 1, restbus: true, attackers: single(0x173), measured: []can.ID{0x173}},
		{exp: 2, restbus: false, attackers: single(0x173), measured: []can.ID{0x173}},
		{exp: 3, restbus: true, attackers: single(0x064), measured: []can.ID{0x064}},
		{exp: 4, restbus: false, attackers: single(0x064), measured: []can.ID{0x064}},
		{exp: 5, restbus: false, attackers: func() []*attack.Attacker {
			return []*attack.Attacker{
				attack.NewTargetedDoS("attacker-66", 0x066),
				attack.NewTargetedDoS("attacker-67", 0x067),
			}
		}, measured: []can.ID{0x066, 0x067}},
		{exp: 6, restbus: false, attackers: func() []*attack.Attacker {
			return []*attack.Attacker{attack.NewToggling("attacker", 0x050, 0x051)}
		}, measured: []can.ID{0x050, 0x051}},
	}
}

// Table2 reproduces Table II: it runs all six experiments at cfg.Rate for
// cfg.Duration and reports the empirical bus-off time per attacker ID. The
// six scenarios are independent simulations (each owns its bus and RNG), so
// they fan out over the trial runner; cfg.Workers=1 recovers the serial
// path with identical rows.
func Table2(cfg Config) ([]Table2Row, error) {
	cfg = cfg.Defaults()
	specs := table2Specs()
	perSpec, err := Map(len(specs), cfg.Workers, func(i int) ([]Table2Row, error) {
		specRows, err := runTable2Experiment(cfg, specs[i])
		if err != nil {
			return nil, fmt.Errorf("experiment %d: %w", specs[i].exp, err)
		}
		return specRows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for _, specRows := range perSpec {
		rows = append(rows, specRows...)
	}
	return rows, nil
}

// RunExperiment runs a single Table-II experiment (1-6).
func RunExperiment(cfg Config, exp int) ([]Table2Row, error) {
	cfg = cfg.Defaults()
	for _, spec := range table2Specs() {
		if spec.exp == exp {
			return runTable2Experiment(cfg, spec)
		}
	}
	return nil, fmt.Errorf("experiment: unknown experiment number %d", exp)
}

func runTable2Experiment(cfg Config, spec experimentSpec) ([]Table2Row, error) {
	rows, _, err := runTable2Scenario(cfg, spec)
	return rows, err
}

// runTable2Scenario runs one Table-II experiment and also returns its
// bus so differential tests can compare raw recorder bit streams.
func runTable2Scenario(cfg Config, spec experimentSpec) ([]Table2Row, *defendedBus, error) {
	bs := busSpec{rate: cfg.Rate, mode: cfg.Mode, seed: cfg.Seed, exclude: spec.measured,
		sends: true, attackers: spec.attackers(), hub: cfg.Hub, record: true}
	if spec.restbus {
		bs.matrix, bs.load = restbus.Buses(restbus.VehD)[0], restbusTargetLoad
	}
	tb, err := newDefendedBus(bs)
	if err != nil {
		return nil, nil, err
	}
	// In experiments 1 and 2 the spoofer fights over the defender's own
	// periodic 0x173 (defenderSends).
	tb.bus.Run(cfg.Rate.Bits(cfg.Duration))

	events := trace.Decode(tb.recorder.Bits(), tb.recorder.Start())
	var rows []Table2Row
	for _, id := range spec.measured {
		eps := completeEpisodes(episodesOf(events, id), tb.bus.Now())
		if len(eps) == 0 {
			return nil, nil, fmt.Errorf("no complete bus-off episodes for %s", id)
		}
		var acc stats.Accumulator
		for _, ep := range eps {
			acc.Add(float64(ep.Bits()))
		}
		bits2dur := func(b float64) time.Duration { return cfg.Rate.Duration(int64(b)) }
		rows = append(rows, Table2Row{
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
	return rows, &tb, nil
}
