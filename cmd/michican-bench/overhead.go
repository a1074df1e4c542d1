package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"michican/internal/experiment"
	"michican/internal/stats"
	"michican/internal/store"
	"michican/internal/telemetry"
)

// overheadCell is one load × stepping-mode cell of an overhead grid.
type overheadCell struct {
	Load float64
	Mode experiment.SteppingMode
}

// overheadLayer is one guard of -overhead: its arms (the first is the
// baseline every other arm is compared with), its grid, and its gate. The
// budget always gates the second arm; the others are reported, not gated.
type overheadLayer struct {
	name  string
	title string
	arms  []experiment.OverheadArm
	cells []overheadCell
	// gated is the cell whose reading the budget gates. Nil gates the grid
	// median instead, with every cell held to 3× the budget as a backstop: a
	// real off-path cost shifts every cell the same way, while a single
	// broken cell still fails.
	gated *overheadCell
	store *storeBlock
}

// overheadGrid is the obs, store and watch grid: three loads × every rung
// below splice.
var overheadGrid = func() []overheadCell {
	var cells []overheadCell
	for _, load := range []float64{0.02, 0.30, 0.60} {
		for _, mode := range []experiment.SteppingMode{experiment.ModeExact, experiment.ModeIdleFF, experiment.ModeContendFF} {
			cells = append(cells, overheadCell{load, mode})
		}
	}
	return cells
}()

// idleCell is the store and watch guards' gated cell: exact stepping at 2%
// offered load, the configuration a live deployment leaves -store or -watch
// enabled on. The fast-forward cells compress thousands of simulated bits
// into each wall microsecond, so their event rate, and what persisting or
// folding it costs, is inflated by the same factor; they are reported in
// full but not gated.
var idleCell = &overheadCell{0.02, experiment.ModeExact}

// armBuilder builds one arm's stack for one repetition.
type armBuilder = func() (*telemetry.Hub, experiment.OverheadTeardown, error)

// stackArm is one instrumented arm of a guard: a retention-off hub carrying
// the stack cfg selects. The zero stackArm is the wired hub with no
// consumers every instrumented layer is compared against.
type stackArm struct {
	cfg experiment.StackConfig
	// persist, when set, gives each repetition a fresh store created with
	// this meta in a temporary directory, removed at teardown.
	persist *store.Meta
	// serve starts the observability server on an ephemeral port.
	serve bool
	// poll reads the watch engine's SLO() and Snapshot() every 5 ms, as a
	// live dashboard does, until teardown.
	poll bool
	// counts reads the layer's counters once the stack has finalized.
	counts func(*experiment.Stack) experiment.OverheadCounts
}

// build makes the arm's stack for one repetition. Its teardown finalizes
// the stack at the run's end, reads the counts and closes the stack.
func (a stackArm) build() (*telemetry.Hub, experiment.OverheadTeardown, error) {
	cfg := a.cfg
	var dir string
	if a.persist != nil {
		var err error
		if dir, err = os.MkdirTemp("", "michican-store-bench-*"); err != nil {
			return nil, nil, err
		}
		if cfg.Store, err = store.Create(dir, *a.persist); err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
	}
	stack := experiment.NewStack(telemetry.NewHub(), cfg)
	teardown := func(end int64) (experiment.OverheadCounts, error) {
		err := stack.Finalize(end)
		var c experiment.OverheadCounts
		if a.counts != nil {
			c = a.counts(stack)
		}
		err = errors.Join(err, stack.Close())
		if dir != "" {
			os.RemoveAll(dir)
		}
		return c, err
	}
	if a.serve {
		if _, err := stack.Serve("127.0.0.1:0"); err != nil {
			teardown(0)
			return nil, nil, err
		}
	}
	if a.poll {
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			t := time.NewTicker(5 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					_ = stack.Watch.SLO()
					_ = stack.Watch.Snapshot()
				}
			}
		}()
		finish := teardown
		teardown = func(end int64) (experiment.OverheadCounts, error) {
			close(stop)
			<-done
			return finish(end)
		}
	}
	return stack.Hub, teardown, nil
}

// overheadLayerFor returns the arms, grid and gate of one layer's guard.
func overheadLayerFor(name string, segBytes int64, fsync string) (overheadLayer, error) {
	layer := overheadLayer{name: name, cells: overheadGrid}
	switch name {
	case "telemetry":
		// The datapath's instrumentation: a metrics-only hub against no hub
		// at all, on the contend fast path at 30% load. This reads the hub's
		// steady-state cost, ~5% on a 2-vCPU VM, so CI still gates with
		// -telemetry-overhead until Hub.emit is cheaper.
		cell := overheadCell{0.30, experiment.ModeContendFF}
		layer.title = "Telemetry overhead — no hub vs metrics-only hub"
		off := func() (*telemetry.Hub, experiment.OverheadTeardown, error) {
			return nil, func(int64) (experiment.OverheadCounts, error) { return nil, nil }, nil
		}
		layer.arms = []experiment.OverheadArm{{Name: "off", Build: off}, {Name: "hub", Build: stackArm{}.build}}
		layer.cells, layer.gated = []overheadCell{cell}, &cell
	case "obs":
		// An idle HTTP surface must cost nothing until a request arrives.
		// The forensics arm folds every event as it streams, so its cost
		// scales with event rate; it is reported for transparency.
		layer.title = "Observability overhead — wired hub vs +idle server vs +forensics"
		layer.arms = []experiment.OverheadArm{
			{Name: "hub", Build: stackArm{}.build},
			{Name: "server", Build: stackArm{serve: true}.build},
			{Name: "forensics", Build: stackArm{cfg: experiment.StackConfig{Forensics: true}, serve: true}.build},
		}
	case "store":
		// The sink batches encodes and group-fsyncs per drain, so steady-state
		// persistence must cost the simulation almost nothing. Each
		// repetition writes to a fresh directory, removed at teardown.
		storeArm := func(checkpointBits int64) armBuilder {
			return stackArm{
				cfg:     experiment.StackConfig{Sink: store.SinkOptions{CheckpointIntervalBits: checkpointBits}},
				persist: &store.Meta{Kind: "bench", SegmentBytes: segBytes, Fsync: fsync},
				counts: func(s *experiment.Stack) experiment.OverheadCounts {
					st := s.Store.Stats()
					return experiment.OverheadCounts{"disk_bytes": st.DiskBytes, "events": st.EventsAppended}
				},
			}.build
		}
		layer.title = "Persistence overhead — in-memory vs +segment store vs +checkpoints"
		layer.arms = []experiment.OverheadArm{
			{Name: "memory", Build: stackArm{}.build},
			{Name: "store", Build: storeArm(0)},
			// Several checkpoints per cell, so the arm actually measures them.
			{Name: "checkpoints", Build: storeArm(1 << 18)},
		}
		layer.gated = idleCell
		layer.store = &storeBlock{Enabled: true, SegmentBytes: segBytes, Fsync: fsync}
	case "watch":
		// The engine folds only matching event kinds and every incident rule
		// runs off forensics closures, so an idle alert surface must cost
		// the simulation almost nothing. The poller arm adds what a live
		// dashboard reading SLO() and Snapshot() every 5 ms costs on top.
		watchArm := func(withWatch, withPoller bool) armBuilder {
			return stackArm{
				cfg:  experiment.StackConfig{Forensics: true, Watch: withWatch},
				poll: withPoller,
				counts: func(s *experiment.Stack) experiment.OverheadCounts {
					if s.Watch == nil {
						return nil
					}
					snap := s.Watch.Snapshot()
					return experiment.OverheadCounts{"transitions": int64(len(snap.Log)), "verdicts": int64(snap.Verdicts)}
				},
			}.build
		}
		layer.title = "Live-SLO overhead — forensics vs +watch engine vs +5 ms poller"
		layer.arms = []experiment.OverheadArm{
			{Name: "forensics", Build: watchArm(false, false)},
			{Name: "watch", Build: watchArm(true, false)},
			{Name: "poller", Build: watchArm(true, true)},
		}
		layer.gated = idleCell
	default:
		return overheadLayer{}, fmt.Errorf("unknown -overhead layer %q (want telemetry|obs|store|watch)", name)
	}
	return layer, nil
}

// overheadArmSummary is one arm's reading across the grid.
type overheadArmSummary struct {
	Name      string  `json:"name"`
	MedianPct float64 `json:"median_overhead_pct"`
	MaxPct    float64 `json:"max_overhead_pct"`
}

// overheadReport is the one JSON shape every -overhead grid writes.
type overheadReport struct {
	GeneratedAt  string                   `json:"generated_at"`
	GoVersion    string                   `json:"go_version"`
	GOMAXPROCS   int                      `json:"gomaxprocs"`
	Layer        string                   `json:"layer"`
	Gate         string                   `json:"gate"`
	Store        *storeBlock              `json:"store,omitempty"`
	BudgetPct    float64                  `json:"budget_pct"`
	SimBitsPer   int64                    `json:"simulated_bits_per_cell"`
	Rows         []experiment.OverheadRow `json:"rows"`
	Arms         []overheadArmSummary     `json:"arms"`
	GatedPct     float64                  `json:"gated_overhead_pct"`
	WithinBudget bool                     `json:"within_budget"`
}

// runOverhead measures one layer's grid, prints every cell as it lands,
// writes the report to jsonPath when it is set, and fails when the gated
// reading exceeds budgetPct.
func runOverhead(layer overheadLayer, simBits int64, budgetPct float64, jsonPath string) error {
	header(layer.title)
	var rows []experiment.OverheadRow
	for _, cell := range layer.cells {
		row, err := experiment.MeasureOverhead(cell.Load, cell.Mode, simBits, layer.arms)
		if err != nil {
			return err
		}
		fmt.Println(row.String())
		rows = append(rows, row)
	}
	rep, verdict := gateOverhead(layer, rows, budgetPct)
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	rep.GoVersion = runtime.Version()
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.SimBitsPer = simBits
	if jsonPath != "" {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(out, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", jsonPath)
	}
	if !rep.WithinBudget {
		return fmt.Errorf("%s: %s exceeds %.1f%% budget", layer.name, verdict, budgetPct)
	}
	fmt.Printf("ok: %s: %s within %.1f%% budget\n", layer.name, verdict, budgetPct)
	return nil
}

// gateOverhead summarizes a layer's measured rows per arm and applies the
// layer's gate to its second arm, returning the report and a one-line
// verdict. The budget is one-sided: a negative reading is noise in the
// arm's favour, never a cost.
func gateOverhead(layer overheadLayer, rows []experiment.OverheadRow, budgetPct float64) (overheadReport, string) {
	rep := overheadReport{Layer: layer.name, Store: layer.store, BudgetPct: budgetPct, Rows: rows}
	for i, arm := range layer.arms {
		pcts := make([]float64, len(rows))
		for r, row := range rows {
			pcts[r] = row.Arms[i].OverheadPct
			if layer.gated != nil && i == 1 && (overheadCell{row.Load, row.Mode}) == *layer.gated {
				rep.GatedPct = pcts[r]
			}
		}
		rep.Arms = append(rep.Arms, overheadArmSummary{Name: arm.Name, MedianPct: median(pcts), MaxPct: slices.Max(pcts)})
	}
	gated := rep.Arms[1]
	if g := layer.gated; g != nil {
		rep.Gate = fmt.Sprintf("%s arm at load %.0f%%, %s", gated.Name, g.Load*100, g.Mode)
		rep.WithinBudget = rep.GatedPct <= budgetPct
		return rep, fmt.Sprintf("%s overhead %+.2f%% (load %.0f%%, %s)", gated.Name, rep.GatedPct, g.Load*100, g.Mode)
	}
	rep.Gate = fmt.Sprintf("%s arm, grid median; every cell within 3× the budget", gated.Name)
	rep.GatedPct = gated.MedianPct
	rep.WithinBudget = gated.MedianPct <= budgetPct && gated.MaxPct <= 3*budgetPct
	return rep, fmt.Sprintf("%s overhead grid median %+.2f%%, worst cell %+.2f%%", gated.Name, gated.MedianPct, gated.MaxPct)
}

// median is the 50th percentile of v; 0 for an empty slice.
func median(v []float64) float64 {
	m, _ := stats.Percentile(v, 50)
	return m
}
