package experiment

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/core"
	"michican/internal/fsm"
	"michican/internal/restbus"
)

// SteppingMode selects how the bus core advances time in a throughput
// measurement.
type SteppingMode string

// The five stepping modes of the fast-forward evaluation grid.
const (
	// ModeExact steps every bit through the full 2N+T interface calls.
	ModeExact SteppingMode = "exact"
	// ModeIdleFF adds the PR1 idle fast-forward: inter-frame recessive
	// windows jump in one shot, frames stay exact.
	ModeIdleFF SteppingMode = "idle-ff"
	// ModeFrameFF adds the sole-transmitter frame fast path on top: an
	// uncontended frame's committed span is resolved and delivered in bulk.
	ModeFrameFF SteppingMode = "frame-ff"
	// ModeContendFF adds the contested-window fast path on top: spans with
	// multiple conditional drivers (arbitration fights, pending SOFs, error
	// flags) resolve via bit-packed wired-AND words and clamp at the first
	// divergence instead of pinning the whole window to exact stepping.
	ModeContendFF SteppingMode = "contend-ff"
	// ModeSpliceFF adds the compiled-splice path on top: whole steady-state
	// frame windows — one transmitter with a memoized plan, everyone else
	// provably passive — splice in as a single precompiled summary per node
	// instead of being re-resolved.
	ModeSpliceFF SteppingMode = "splice-ff"
	// ModeHyperFF names the full idle/frame/contend/splice ladder.
	//
	// Deprecated: use ModeSpliceFF, which it equals. It is kept only for the
	// benchmark module's vehicle-benign workload, which selects it.
	ModeHyperFF = ModeSpliceFF
)

// SteppingModes lists the stepping modes in ladder order: each mode enables
// its own rung and every rung before it.
var SteppingModes = []SteppingMode{ModeExact, ModeIdleFF, ModeFrameFF, ModeContendFF, ModeSpliceFF}

// applyMode sets the bus's fast-path ladder to the given stepping mode. A
// mode outside SteppingModes is an error naming it.
func applyMode(bb *bus.Bus, mode SteppingMode) error {
	rung := slices.Index(SteppingModes, mode)
	if rung < 0 {
		return fmt.Errorf("unknown stepping mode %q", mode)
	}
	bb.SetFastForward(rung >= 1)
	bb.SetFrameFastForward(rung >= 2)
	bb.SetContendFastForward(rung >= 3)
	bb.SetSpliceFastForward(rung >= 4)
	return nil
}

// ThroughputRow is one measured cell of the load × stepping-mode grid.
type ThroughputRow struct {
	// Load is the offered restbus load the scenario was stretched to.
	Load float64 `json:"load"`
	// Mode is the stepping mode measured.
	Mode SteppingMode `json:"mode"`
	// SimulatedBits is the amount of bus time simulated, in bit times.
	SimulatedBits int64 `json:"simulated_bits"`
	// WallSeconds is the wall-clock cost of simulating them.
	WallSeconds float64 `json:"wall_seconds"`
	// BitsPerSecond is SimulatedBits / WallSeconds.
	BitsPerSecond float64 `json:"bits_per_second"`
	// NsPerBit is the inverse view: wall nanoseconds per simulated bit.
	NsPerBit float64 `json:"ns_per_bit"`
	// AllocsPerMBit is heap allocations per million simulated bits.
	AllocsPerMBit float64 `json:"allocs_per_mbit"`
	// IdleHitRate is the fraction of simulated bits covered by the idle
	// fast path.
	IdleHitRate float64 `json:"idle_hit_rate"`
	// FrameHitRate is the fraction of simulated bits covered by the
	// sole-transmitter frame fast path.
	FrameHitRate float64 `json:"frame_hit_rate"`
	// ContendHitRate is the fraction of simulated bits covered by the
	// contested-window (multi-driver) fast path.
	ContendHitRate float64 `json:"contend_hit_rate"`
	// SpliceHitRate is the fraction of simulated bits covered by the
	// compiled-splice fast path.
	SpliceHitRate float64 `json:"splice_hit_rate"`
}

// String renders the row for terminal output.
func (r ThroughputRow) String() string {
	return fmt.Sprintf("load=%2.0f%%  %-10s  %7.2f Mbit/s  %7.1f ns/bit  idle-hit=%4.1f%%  frame-hit=%4.1f%%  contend-hit=%4.1f%%  splice-hit=%4.1f%%  allocs/Mbit=%.0f",
		r.Load*100, r.Mode, r.BitsPerSecond/1e6, r.NsPerBit,
		r.IdleHitRate*100, r.FrameHitRate*100, r.ContendHitRate*100, r.SpliceHitRate*100, r.AllocsPerMBit)
}

// ThroughputScenario builds the fast-forward evaluation scenario: a Veh.-D
// restbus replayer stretched to the target offered load at 50 kbit/s plus a
// MichiCAN-defended ECU that ACKs the traffic. The same construction backs
// BenchmarkBusFastForward and michican-bench -json, so the numbers are
// comparable. The empty mode is the full ladder; an unknown one is an error.
func ThroughputScenario(target float64, mode SteppingMode) (*bus.Bus, error) {
	bb, _, err := throughputScenario(target, mode)
	return bb, err
}

// throughputScenario is the full-fidelity constructor: it also returns the
// attached nodes so callers (the telemetry-overhead guard) can wire them into
// a hub after construction.
func throughputScenario(target float64, mode SteppingMode) (*bus.Bus, []bus.Node, error) {
	return throughputScenarioSeeded(target, mode, 1)
}

// throughputScenarioSeeded varies the restbus phase seed: the workers
// scaling sweep builds several independent instances of the same grid cell,
// each with its own derived seed.
func throughputScenarioSeeded(target float64, mode SteppingMode, seed int64) (*bus.Bus, []bus.Node, error) {
	if mode == "" {
		mode = ModeSpliceFF
	}
	src := restbus.Buses(restbus.VehD)[0]
	matrix := scaleMatrixToLoad(cleanMatrix(src, []can.ID{DefenderID}), bus.Rate50k, target)

	bb := bus.New(bus.Rate50k)
	if err := applyMode(bb, mode); err != nil {
		return nil, nil, err
	}
	v, err := fsm.NewIVN(append(matrix.IDs(), DefenderID))
	if err != nil {
		return nil, nil, err
	}
	ds, err := fsm.NewDetectionSet(v, v.Index(DefenderID))
	if err != nil {
		return nil, nil, err
	}
	def, err := core.New(core.Config{Name: "defender", FSM: fsm.Build(ds)})
	if err != nil {
		return nil, nil, err
	}
	rp := restbus.NewReplayer("restbus", matrix, bus.Rate50k, rand.New(rand.NewSource(seed)))
	nodes := []bus.Node{
		core.NewECU(controller.New(controller.Config{Name: "defender", AutoRecover: true}), def),
		rp,
	}
	for _, n := range nodes {
		bb.Attach(n)
	}
	if mode == ModeSpliceFF {
		// Schedule-driven cache warm: precompile the plans the rolling
		// sequence counters will produce. One full rotation (256 values per
		// message) covers every frame content the schedule can emit, so
		// steady-state splicing never pays a first-sight serialization; the
		// warm set stays well inside the bounded plan cache (messages × 256
		// ≪ 16384).
		rp.WarmSplice(256)
	}
	return bb, nodes, nil
}

// MeasureThroughput simulates simBits bit times of the scenario at the given
// load and stepping mode and reports wall-clock throughput, allocation rate,
// and fast-path hit rates. A warm-up run lets the initial phase offsets
// settle and the span memos populate before timing starts: the restbus
// payloads carry rolling counters, so the working set of span identities is
// the full 256-value rotation (~1.4M bit times at 60% load), and a timed
// window that starts cold spends a large prefix paying one-time plan builds
// and span decodes instead of measuring the stepping mode. The warm-up is
// one fifth of the measurement length, floored at a full rotation for grid
// runs (1M+ bit measurements) so the table reports steady state, and at
// 100k bits below that so short smoke runs stay cheap.
func MeasureThroughput(target float64, mode SteppingMode, simBits int64) (ThroughputRow, error) {
	bb, err := ThroughputScenario(target, mode)
	if err != nil {
		return ThroughputRow{}, err
	}
	warmup := simBits / 5
	if simBits >= 1_000_000 {
		if warmup < 1_500_000 {
			warmup = 1_500_000
		}
	} else if warmup < 100_000 {
		warmup = 100_000
	}
	bb.Run(warmup)
	idle0, frame0 := bb.IdleForwardedBits(), bb.FrameForwardedBits()
	contend0, splice0 := bb.ContendForwardedBits(), bb.SpliceForwardedBits()
	var ms0, ms1 runtime.MemStats
	// Collect before the baseline read so garbage left by the warm-up (or a
	// previous grid cell) cannot trigger a GC inside the timed window and
	// charge its assist allocations to this mode's row.
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	bb.Run(simBits)
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	if wall <= 0 {
		wall = 1e-9
	}
	return ThroughputRow{
		Load:           target,
		Mode:           mode,
		SimulatedBits:  simBits,
		WallSeconds:    wall,
		BitsPerSecond:  float64(simBits) / wall,
		NsPerBit:       wall * 1e9 / float64(simBits),
		AllocsPerMBit:  float64(ms1.Mallocs-ms0.Mallocs) / (float64(simBits) / 1e6),
		IdleHitRate:    float64(bb.IdleForwardedBits()-idle0) / float64(simBits),
		FrameHitRate:   float64(bb.FrameForwardedBits()-frame0) / float64(simBits),
		ContendHitRate: float64(bb.ContendForwardedBits()-contend0) / float64(simBits),
		SpliceHitRate:  float64(bb.SpliceForwardedBits()-splice0) / float64(simBits),
	}, nil
}

// ScalingRow is one cell of the workers scaling sweep: several independent
// instances of the same grid cell run concurrently over the trial runner,
// and the row reports the aggregate simulation throughput at that worker
// count.
type ScalingRow struct {
	// Workers is the Map pool size the instances ran under.
	Workers int `json:"workers"`
	// Scenarios is how many independent scenario instances were run.
	Scenarios int `json:"scenarios"`
	// Load and Mode identify the grid cell every instance simulated.
	Load float64      `json:"load"`
	Mode SteppingMode `json:"mode"`
	// SimulatedBits is the total bus time simulated across all instances
	// (warm-up included — every worker count runs the identical mix, so the
	// ratios are apples-to-apples).
	SimulatedBits int64 `json:"simulated_bits"`
	// WallSeconds is the wall-clock for the whole batch.
	WallSeconds float64 `json:"wall_seconds"`
	// AggregateBitsPerSecond is SimulatedBits / WallSeconds.
	AggregateBitsPerSecond float64 `json:"aggregate_bits_per_second"`
	// SpeedupVs1 is this row's aggregate throughput over the workers=1 row
	// of the same sweep (1.0 for the first row).
	SpeedupVs1 float64 `json:"speedup_vs_1"`
}

// String renders the row for terminal output.
func (r ScalingRow) String() string {
	return fmt.Sprintf("workers=%2d  scenarios=%d  load=%2.0f%%  %-10s  %8.2f Mbit/s aggregate  speedup=%.2fx",
		r.Workers, r.Scenarios, r.Load*100, r.Mode, r.AggregateBitsPerSecond/1e6, r.SpeedupVs1)
}

// MeasureScalingSweep runs the workers scaling sweep on one grid cell:
// `scenarios` independent instances (each with a DeriveSeed-derived restbus
// phase seed) fan out over the trial runner at each worker count, and every
// row reports aggregate simulated bits per wall-clock second. Near-linear
// scaling up to the core count is the expectation for shared-nothing
// instances; the recorded NumCPU in the bench header is what makes a flat
// curve on a small machine interpretable.
func MeasureScalingSweep(load float64, mode SteppingMode, simBits int64, scenarios int, workersList []int) ([]ScalingRow, error) {
	if scenarios <= 0 {
		scenarios = 4
	}
	warmup := simBits / 5
	if warmup < 100_000 {
		warmup = 100_000
	}
	var rows []ScalingRow
	for _, workers := range workersList {
		start := time.Now()
		_, err := Map(scenarios, workers, func(i int) (struct{}, error) {
			bb, _, err := throughputScenarioSeeded(load, mode, DeriveSeed(1, i))
			if err != nil {
				return struct{}{}, err
			}
			bb.Run(warmup)
			bb.Run(simBits)
			return struct{}{}, nil
		})
		if err != nil {
			return nil, err
		}
		wall := time.Since(start).Seconds()
		if wall <= 0 {
			wall = 1e-9
		}
		row := ScalingRow{
			Workers:                workers,
			Scenarios:              scenarios,
			Load:                   load,
			Mode:                   mode,
			SimulatedBits:          int64(scenarios) * (warmup + simBits),
			WallSeconds:            wall,
			AggregateBitsPerSecond: float64(int64(scenarios)*(warmup+simBits)) / wall,
			SpeedupVs1:             1,
		}
		if len(rows) > 0 && rows[0].AggregateBitsPerSecond > 0 {
			row.SpeedupVs1 = row.AggregateBitsPerSecond / rows[0].AggregateBitsPerSecond
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ScalingWorkersList is the default sweep: 1, 2, 4, then GOMAXPROCS when it
// extends the curve.
func ScalingWorkersList() []int {
	list := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		list = append(list, p)
	}
	return list
}

// ThroughputGrid measures the full load × mode grid (EXPERIMENTS.md's
// throughput table and michican-bench -json).
func ThroughputGrid(loads []float64, simBits int64) ([]ThroughputRow, error) {
	if len(loads) == 0 {
		loads = []float64{0.02, 0.30, 0.60}
	}
	var rows []ThroughputRow
	for _, load := range loads {
		for _, mode := range SteppingModes {
			row, err := MeasureThroughput(load, mode, simBits)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
