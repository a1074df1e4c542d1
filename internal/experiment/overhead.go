package experiment

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"michican/internal/stats"
	"michican/internal/telemetry"
)

// OverheadCounts is what an arm's teardown reports about the work its layer
// did during one repetition, by name (bytes persisted, events appended,
// alerts evaluated, …), so an overhead figure can be tied to what was
// actually done. Layers report only what they have; nil reports nothing.
type OverheadCounts map[string]int64

// OverheadTeardown releases what an arm's builder made once its repetition
// has run to simulated bit time end, and reports the layer's counts.
type OverheadTeardown func(end int64) (OverheadCounts, error)

// OverheadArm is one configuration of a paired overhead comparison. Build
// makes a fresh stack for one repetition and returns the hub to wire into the
// scenario (nil runs it with telemetry off) plus its teardown.
type OverheadArm struct {
	Name  string
	Build func() (*telemetry.Hub, OverheadTeardown, error)
}

// OverheadArmResult is one arm's outcome in one grid cell.
type OverheadArmResult struct {
	Name string `json:"name"`
	// BitsPerSecond is the arm's best repetition.
	BitsPerSecond float64 `json:"bits_per_second"`
	// OverheadPct is the median across rounds of the paired per-round
	// slowdown (first arm − this arm) / first arm × 100; zero for the first
	// arm itself. A negative value (this arm measured faster, i.e. noise) is
	// reported as measured.
	OverheadPct float64 `json:"overhead_pct"`
	// Counts is what the arm's last teardown reported.
	Counts OverheadCounts `json:"counts,omitempty"`
}

// OverheadRow is one load × stepping-mode cell of an overhead grid.
type OverheadRow struct {
	Load          float64             `json:"load"`
	Mode          SteppingMode        `json:"mode"`
	SimulatedBits int64               `json:"simulated_bits"`
	Arms          []OverheadArmResult `json:"arms"`
}

// String renders the row for terminal output.
func (r OverheadRow) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load=%2.0f%%  %-10s", r.Load*100, r.Mode)
	for i, a := range r.Arms {
		fmt.Fprintf(&b, "  %s=%7.2f Mbit/s", a.Name, a.BitsPerSecond/1e6)
		if i > 0 {
			fmt.Fprintf(&b, " (%+.2f%%)", a.OverheadPct)
		}
		if len(a.Counts) != 0 {
			names := make([]string, 0, len(a.Counts))
			for name := range a.Counts {
				names = append(names, name)
			}
			slices.Sort(names)
			b.WriteString(" [")
			for k, name := range names {
				if k > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%s=%d", name, a.Counts[name])
			}
			b.WriteByte(']')
		}
	}
	return b.String()
}

// overheadReps and minWallSecondsPerRep size a cell: a 2% verdict needs
// repetitions long enough that scheduler jitter cannot move one by much more
// than that, and enough of them that the median's standard error lands well
// under the budget.
const (
	overheadReps         = 11
	minWallSecondsPerRep = 0.4
)

// scenarioRunner times one repetition of the throughput scenario; the
// production runner is runScenarioOnce.
type scenarioRunner func(load float64, mode SteppingMode, simBits int64, hub *telemetry.Hub) (float64, error)

// MeasureOverhead measures one cell of an overhead grid: the throughput
// scenario at load and mode, once per arm per round, each arm compared with
// the first. simBits is raised until a repetition holds a minimum wall time.
func MeasureOverhead(load float64, mode SteppingMode, simBits int64, arms []OverheadArm) (OverheadRow, error) {
	return measureOverhead(load, mode, simBits, arms, runScenarioOnce)
}

func measureOverhead(load float64, mode SteppingMode, simBits int64, arms []OverheadArm, run scenarioRunner) (OverheadRow, error) {
	// Calibrate twice: the second run is made at the size the first one
	// suggests, and the repetitions are sized from the second run's rate. A
	// fresh scenario's first bits run slower than its steady state (plans
	// filling, a cold process), so a size taken from a short window alone
	// would leave every repetition short of the minimum wall time.
	row := OverheadRow{Load: load, Mode: mode, SimulatedBits: simBits}
	for i := 0; i < 2; i++ {
		cal, err := run(load, mode, row.SimulatedBits, nil)
		if err != nil {
			return row, err
		}
		row.SimulatedBits = max(simBits, int64(cal*minWallSecondsPerRep))
	}

	// Repetitions interleave across arms so slow machine drift — frequency
	// scaling, co-tenant load — hits every arm equally instead of skewing
	// whichever arm a block schedule measured during the slow window. The
	// arm that opens a round rotates (a, b, c, then b, c, a, then c, a, b, …)
	// so a position effect, such as the round's first run paying for the
	// previous round's garbage or a cooled cache, is spread over every arm
	// instead of landing on arms 1 and up. Each repetition builds a fresh
	// stack and tears it down again: a long-lived consumer would otherwise
	// accumulate state across replays of the same scenario, and its growing
	// live heap taxes every later repetition's GC cycles, the other arms'
	// included.
	row.Arms = make([]OverheadArmResult, len(arms))
	rounds := make([][]float64, len(arms))
	for rep := 0; rep < overheadReps; rep++ {
		for k := range arms {
			i := (rep + k) % len(arms)
			arm := arms[i]
			hub, teardown, err := arm.Build()
			if err != nil {
				return row, fmt.Errorf("%s arm: build: %w", arm.Name, err)
			}
			// Start every repetition from a freshly collected heap so one
			// arm's allocations cannot bill a GC cycle to its successor.
			runtime.GC()
			bps, err := run(load, mode, row.SimulatedBits, hub)
			counts, terr := teardown(warmupBits + row.SimulatedBits)
			if err != nil {
				return row, fmt.Errorf("%s arm: %w", arm.Name, err)
			}
			if terr != nil {
				return row, fmt.Errorf("%s arm: teardown: %w", arm.Name, terr)
			}
			res := &row.Arms[i]
			res.Name, res.Counts = arm.Name, counts
			if bps > res.BitsPerSecond {
				res.BitsPerSecond = bps
			}
			rounds[i] = append(rounds[i], bps)
		}
	}
	// The verdict pairs each round's arms against each other and takes the
	// median round: a single slow repetition (GC pause, co-tenant burst)
	// lands in one round's pair and gets voted out, where a best-of-runs
	// quotient would carry it straight into the verdict.
	pcts := make([]float64, overheadReps)
	for i := 1; i < len(arms); i++ {
		for r := range pcts {
			base := rounds[0][r]
			pcts[r] = (base - rounds[i][r]) / base * 100
		}
		row.Arms[i].OverheadPct, _ = stats.Percentile(pcts, 50)
	}
	return row, nil
}

// warmupBits is how far runScenarioOnce advances before its timed window.
const warmupBits = 100_000

// runScenarioOnce builds one fresh throughput scenario wired into hub (nil:
// telemetry off) and times one simBits run after a warm-up.
func runScenarioOnce(target float64, mode SteppingMode, simBits int64, hub *telemetry.Hub) (float64, error) {
	tb, err := newDefendedBus(throughputSpec(target, mode, 1, hub))
	if err != nil {
		return 0, err
	}
	tb.bus.Run(warmupBits)
	start := time.Now()
	tb.bus.Run(simBits)
	wall := time.Since(start).Seconds()
	if wall <= 0 {
		wall = 1e-9
	}
	return float64(simBits) / wall, nil
}
