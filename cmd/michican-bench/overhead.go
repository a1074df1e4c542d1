package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"michican/internal/experiment"
	"michican/internal/forensics"
	"michican/internal/obs"
	"michican/internal/stats"
	"michican/internal/store"
	"michican/internal/telemetry"
	"michican/internal/watch"
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

// hubOnly is the arm every instrumented layer is compared against: a wired,
// retention-off hub with no consumers.
func hubOnly() (*telemetry.Hub, experiment.OverheadTeardown, error) {
	return metricsHub(), noCounts, nil
}

// metricsHub is the retention-off hub every instrumented arm wires in.
func metricsHub() *telemetry.Hub {
	hub := telemetry.NewHub()
	hub.RetainEvents(false)
	return hub
}

func noCounts(int64) (experiment.OverheadCounts, error) { return nil, nil }

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
		off := func() (*telemetry.Hub, experiment.OverheadTeardown, error) { return nil, noCounts, nil }
		layer.arms = []experiment.OverheadArm{{Name: "off", Build: off}, {Name: "hub", Build: hubOnly}}
		layer.cells, layer.gated = []overheadCell{cell}, &cell
	case "obs":
		// An idle HTTP surface must cost nothing until a request arrives.
		// The forensics arm folds every event as it streams, so its cost
		// scales with event rate; it is reported for transparency.
		obsArm := func(withForensics bool) armBuilder {
			return func() (*telemetry.Hub, experiment.OverheadTeardown, error) {
				hub := metricsHub()
				var eng *forensics.Engine
				if withForensics {
					eng = forensics.NewEngine(hub)
				}
				server, err := obs.Serve("127.0.0.1:0", hub, eng)
				if err != nil {
					return nil, nil, err
				}
				return hub, func(int64) (experiment.OverheadCounts, error) {
					err := server.Close()
					if eng != nil {
						eng.Close()
					}
					return nil, err
				}, nil
			}
		}
		layer.title = "Observability overhead — wired hub vs +idle server vs +forensics"
		layer.arms = []experiment.OverheadArm{
			{Name: "hub", Build: hubOnly},
			{Name: "server", Build: obsArm(false)},
			{Name: "forensics", Build: obsArm(true)},
		}
	case "store":
		// The sink batches encodes and group-fsyncs per drain, so steady-state
		// persistence must cost the simulation almost nothing. Each
		// repetition writes to a fresh directory, removed at teardown.
		storeArm := func(checkpointBits int64) armBuilder {
			return func() (*telemetry.Hub, experiment.OverheadTeardown, error) {
				dir, err := os.MkdirTemp("", "michican-store-bench-*")
				if err != nil {
					return nil, nil, err
				}
				st, err := store.Create(dir, store.Meta{Kind: "bench", SegmentBytes: segBytes, Fsync: fsync})
				if err != nil {
					os.RemoveAll(dir)
					return nil, nil, err
				}
				hub := metricsHub()
				sink := store.NewSink(st, hub, store.SinkOptions{CheckpointIntervalBits: checkpointBits})
				return hub, func(int64) (experiment.OverheadCounts, error) {
					serr := sink.Close(0, false)
					s := st.Stats()
					cerr := st.Close()
					os.RemoveAll(dir)
					if serr == nil {
						serr = cerr
					}
					return experiment.OverheadCounts{"disk_bytes": s.DiskBytes, "events": s.EventsAppended}, serr
				}, nil
			}
		}
		layer.title = "Persistence overhead — in-memory vs +segment store vs +checkpoints"
		layer.arms = []experiment.OverheadArm{
			{Name: "memory", Build: hubOnly},
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
			return func() (*telemetry.Hub, experiment.OverheadTeardown, error) {
				hub := metricsHub()
				eng := forensics.NewEngine(hub)
				var w *watch.Engine
				if withWatch {
					w = watch.New(hub, eng, watch.Config{})
				}
				stop := make(chan struct{})
				var poller sync.WaitGroup
				if withPoller {
					poller.Add(1)
					go func() {
						defer poller.Done()
						t := time.NewTicker(5 * time.Millisecond)
						defer t.Stop()
						for {
							select {
							case <-stop:
								return
							case <-t.C:
								_ = w.SLO()
								_ = w.Snapshot()
							}
						}
					}()
				}
				return hub, func(end int64) (experiment.OverheadCounts, error) {
					close(stop)
					poller.Wait()
					eng.Finalize(end)
					var c experiment.OverheadCounts
					if w != nil {
						snap := w.Snapshot()
						c = experiment.OverheadCounts{"transitions": int64(len(snap.Log)), "verdicts": int64(snap.Verdicts)}
						w.Close()
					}
					eng.Close()
					return c, nil
				}, nil
			}
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
