// Command michican-bench regenerates every table and figure of the MichiCAN
// paper's evaluation (Sec. V) from the simulation:
//
//	michican-bench -all              # everything
//	michican-bench -table 2         # Table II (bus-off times, Exps 1-6)
//	michican-bench -fig 6           # Fig. 6 (Experiment-5 interleaving)
//	michican-bench -exp detection   # Sec. V-B (160k random FSMs)
//	michican-bench -exp multiattacker
//	michican-bench -exp cpu         # Sec. V-D
//	michican-bench -exp busload     # Sec. V-E (incl. Parrot comparison)
//	michican-bench -exp parksense   # Sec. V-F (on-vehicle test)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"michican/internal/bus"
	"michican/internal/experiment"
	"michican/internal/forensics"
	"michican/internal/mcu"
	"michican/internal/obs"
	"michican/internal/store"
	"michican/internal/telemetry"
)

func main() {
	var (
		table      = flag.Int("table", 0, "regenerate table 1, 2 or 3")
		fig        = flag.Int("fig", 0, "regenerate figure 6")
		exp        = flag.String("exp", "", "study: detection|sweep|multiattacker|cpu|busload|parksense|sched|split")
		all        = flag.Bool("all", false, "regenerate everything")
		duration   = flag.Duration("duration", 2*time.Second, "recording length per run")
		rate       = flag.Int("rate", 50_000, "bus speed in bit/s")
		seed       = flag.Int64("seed", 1, "deterministic seed")
		fsms       = flag.Int("fsms", 160_000, "random FSMs for the detection study")
		workers    = flag.Int("workers", 0, "trial-runner pool size (0 = GOMAXPROCS, 1 = serial); results are identical either way")
		exact      = flag.Bool("exact", false, "force exact per-bit stepping (disable idle fast-forward)")
		contendFF  = flag.Bool("contend-ff", true, "enable the contested-window fast path (set -contend-ff=false to ablate it and the splice tier above it; idle and frame paths stay on)")
		spliceFF   = flag.Bool("splice-ff", true, "enable the compiled-splice fast path (set -splice-ff=false to ablate the splice tier; the idle/frame/contend ladder stays on)")
		jsonOut    = flag.String("json", "", "measure the throughput grid (load × stepping mode) and write machine-readable results to this file")
		gridBits   = flag.Int64("gridbits", 2_000_000, "simulated bit times per throughput-grid cell")
		metrics    = flag.Bool("metrics", false, "collect telemetry metrics during the run and print a Prometheus-style snapshot")
		httpAddr   = flag.String("http", "", "serve live observability (/metrics /incidents /snapshot /debug/pprof) on this address while the run advances (implies -metrics)")
		obsJSON    = flag.String("obs-overhead", "", "measure the 3×4 throughput grid across observability arms (wired hub / +idle HTTP server / +forensics engine) and write JSON to this file")
		obsBudget  = flag.Float64("obs-budget", 2.0, "slowdown budget in percent the idle-server arm of the -obs-overhead grid must stay within")
		storeJSON  = flag.String("store-overhead", "", "measure the 3×4 throughput grid across persistence arms (in-memory / +segment store / +checkpoints) and write JSON to this file")
		storeBudg  = flag.Float64("store-budget", 2.0, "slowdown budget in percent the persist arm of the -store-overhead grid must stay within")
		storeSeg   = flag.Int64("store-segment-bytes", store.DefaultSegmentBytes, "segment roll threshold for the -store-overhead arms (also recorded in the -json store block)")
		storeFsync = flag.String("store-fsync", store.FsyncGroup, "fsync policy for the -store-overhead arms: group|checkpoint|none")
		watchJSON  = flag.String("watch-overhead", "", "measure the 3×4 throughput grid across live-SLO arms (forensics baseline / +watch engine / +5ms SLO poller) and write JSON to this file")
		watchBudg  = flag.Float64("watch-budget", 2.0, "slowdown budget in percent the watch arm of the -watch-overhead grid must stay within at the idle cell")
		overhead   = flag.Bool("telemetry-overhead", false, "measure disabled-vs-enabled telemetry throughput on the frame fast path and exit nonzero over -overhead-threshold")
		overheadTh = flag.Float64("overhead-threshold", 2.0, "max tolerated telemetry overhead in percent for -telemetry-overhead")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	if *overhead {
		if err := runOverheadGuard(*gridBits, *overheadTh); err != nil {
			fmt.Fprintln(os.Stderr, "michican-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *obsJSON != "" {
		if err := writeObsOverheadJSON(*obsJSON, *gridBits, *obsBudget); err != nil {
			fmt.Fprintln(os.Stderr, "michican-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *storeJSON != "" {
		if err := writeStoreOverheadJSON(*storeJSON, *gridBits, *storeBudg, *storeSeg, *storeFsync); err != nil {
			fmt.Fprintln(os.Stderr, "michican-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *watchJSON != "" {
		if err := writeWatchOverheadJSON(*watchJSON, *gridBits, *watchBudg); err != nil {
			fmt.Fprintln(os.Stderr, "michican-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *jsonOut != "" {
		if err := writeThroughputJSON(*jsonOut, *gridBits, *workers, *storeSeg, *storeFsync); err != nil {
			fmt.Fprintln(os.Stderr, "michican-bench:", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiment.Config{
		Rate:          bus.Rate(*rate),
		Duration:      *duration,
		Seed:          *seed,
		Workers:       *workers,
		ExactStepping: *exact,
		NoContendFF:   !*contendFF,
		NoSpliceFF:    !*spliceFF,
	}
	var hub *telemetry.Hub
	if *metrics || *httpAddr != "" {
		// Metrics-only collection: counters and histograms fold on emit,
		// the raw event log is dropped, so long -all runs stay bounded.
		hub = telemetry.NewHub()
		hub.RetainEvents(false)
		cfg.Hub = hub
	}
	if *httpAddr != "" {
		// A live observability surface for long grid runs: the forensics
		// engine streams off the shared hub and the server exposes it (plus
		// metrics and pprof) while the experiments advance.
		eng := forensics.NewEngine(hub)
		defer eng.Close()
		server, err := obs.Serve(*httpAddr, hub, eng)
		if err != nil {
			fmt.Fprintln(os.Stderr, "michican-bench:", err)
			os.Exit(1)
		}
		defer server.Close()
		fmt.Printf("observability server listening on %s\n", server.URL())
	}
	if err := profiledRun(cfg, *table, *fig, *exp, *all, *fsms, *cpuprofile, *memprofile, hub); err != nil {
		fmt.Fprintln(os.Stderr, "michican-bench:", err)
		os.Exit(1)
	}
}

// runOverheadGuard backs the CI telemetry-overhead step: it measures the
// frame-fast-path throughput with telemetry disabled and with a metrics-only
// hub wired in, prints both, and fails when the relative cost exceeds the
// threshold.
func runOverheadGuard(simBits int64, thresholdPct float64) error {
	header("Telemetry overhead guard — batch fast paths")
	row, err := experiment.MeasureTelemetryOverhead(experiment.ModeContendFF, simBits)
	if err != nil {
		return err
	}
	fmt.Println(row.String())
	if row.OverheadPct > thresholdPct {
		return fmt.Errorf("telemetry overhead %.2f%% exceeds threshold %.2f%%",
			row.OverheadPct, thresholdPct)
	}
	fmt.Printf("ok: overhead %.2f%% within threshold %.2f%%\n", row.OverheadPct, thresholdPct)
	return nil
}

// writeThroughputJSON measures the load × stepping-mode throughput grid plus
// a workers scaling sweep and writes both as JSON (the repo's BENCH_*.json
// perf trajectory), echoing each row to stdout as it lands. NumCPU and the
// pinning policy ride in the header so scaling curves from different
// machines stay interpretable — a flat curve on a 1-core runner is physics,
// not a regression.
func writeThroughputJSON(path string, simBits int64, workers int, segBytes int64, fsync string) error {
	type report struct {
		GeneratedAt string                     `json:"generated_at"`
		GoVersion   string                     `json:"go_version"`
		GOMAXPROCS  int                        `json:"gomaxprocs"`
		NumCPU      int                        `json:"num_cpu"`
		PinPolicy   string                     `json:"pin_policy"`
		Workers     int                        `json:"workers"`
		Store       storeBlock                 `json:"store"`
		Modes       []experiment.SteppingMode  `json:"fast_path_modes"`
		SimBitsPer  int64                      `json:"simulated_bits_per_cell"`
		Rows        []experiment.ThroughputRow `json:"rows"`
		Scaling     []experiment.ScalingRow    `json:"scaling"`
		FleetCache  []experiment.FleetCacheRow `json:"fleet_plan_cache"`
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	modes := experiment.SteppingModes
	header("Throughput grid — exact vs idle-FF vs frame-FF vs contend-FF vs splice-FF")
	fmt.Printf("fast-path modes: %v, workers=%d\n", modes, workers)
	var rows []experiment.ThroughputRow
	for _, load := range []float64{0.02, 0.30, 0.60} {
		for _, mode := range modes {
			row, err := experiment.MeasureThroughput(load, mode, simBits)
			if err != nil {
				return err
			}
			fmt.Println(row.String())
			rows = append(rows, row)
		}
	}
	workersList := experiment.ScalingWorkersList()
	header("Workers scaling sweep — independent scenario instances per pool size")
	scaling, err := experiment.MeasureScalingSweep(0.30, experiment.ModeSpliceFF, simBits, 4, workersList)
	if err != nil {
		return err
	}
	for _, row := range scaling {
		fmt.Println(row.String())
	}
	header("Fleet plan-cache arm — warm-up compile time and resident memory, shared cache off/on")
	var cacheRows []experiment.FleetCacheRow
	for _, n := range []int{100, 1000} {
		for _, shared := range []bool{false, true} {
			row, err := experiment.MeasureFleetPlanCache(n, shared, 1)
			if err != nil {
				return err
			}
			fmt.Println(row.String())
			cacheRows = append(cacheRows, row)
		}
	}
	out, err := json.MarshalIndent(report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		PinPolicy:   "work-stealing goroutine pool (experiment.Map), unpinned",
		Workers:     workers,
		Store:       storeBlock{Enabled: false, SegmentBytes: segBytes, Fsync: fsync},
		Modes:       modes,
		SimBitsPer:  simBits,
		Rows:        rows,
		Scaling:     scaling,
		FleetCache:  cacheRows,
	}, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	return nil
}

// writeObsOverheadJSON measures the load × stepping-mode grid across the
// three observability arms — wired hub baseline, + bound idle HTTP server,
// + live forensics engine — and writes the comparison as JSON
// (BENCH_PR5.json). The budget gates the server arm only: an idle HTTP
// surface must cost nothing until a request arrives. A real off-path cost
// would shift every cell the same way, so the primary gate is the grid-wide
// median slowdown; a per-cell backstop at 3× the budget catches a cell that
// is individually broken rather than noisy. The forensics arm folds every
// event as it streams, so its cost scales with event rate (frames per
// wall-second, highest on the fast paths); it is reported for transparency
// but not gated.
func writeObsOverheadJSON(path string, simBits int64, budgetPct float64) error {
	type report struct {
		GeneratedAt        string                      `json:"generated_at"`
		GoVersion          string                      `json:"go_version"`
		GOMAXPROCS         int                         `json:"gomaxprocs"`
		Baseline           string                      `json:"baseline"`
		ServerArm          string                      `json:"server_arm"`
		FullStackArm       string                      `json:"full_stack_arm"`
		BudgetPct          float64                     `json:"budget_pct"`
		SimBitsPer         int64                       `json:"simulated_bits_per_cell"`
		Rows               []experiment.ObsOverheadRow `json:"rows"`
		MedianServerPct    float64                     `json:"median_server_overhead_pct"`
		MaxServerPct       float64                     `json:"max_server_overhead_pct"`
		MedianFullStackPct float64                     `json:"median_full_stack_overhead_pct"`
		MaxFullStackPct    float64                     `json:"max_full_stack_overhead_pct"`
		WithinBudget       bool                        `json:"within_budget"`
	}
	newStack := func(arm experiment.ObsArm) (*telemetry.Hub, func(), error) {
		hub := telemetry.NewHub()
		hub.RetainEvents(false)
		if arm == experiment.ObsBaseline {
			return hub, func() {}, nil
		}
		var eng *forensics.Engine
		if arm == experiment.ObsFullStack {
			eng = forensics.NewEngine(hub)
		}
		server, err := obs.Serve("127.0.0.1:0", hub, eng)
		if err != nil {
			return nil, nil, err
		}
		return hub, func() {
			server.Close()
			if eng != nil {
				eng.Close()
			}
		}, nil
	}
	header("Observability overhead grid — wired hub vs +server vs +forensics")
	var rows []experiment.ObsOverheadRow
	// The budget is one-sided: overhead means the arm slowed the simulation
	// down. An idle, accept-blocked server cannot legitimately make the core
	// loop faster, so a negative cell is measurement noise in the arm's
	// favour and does not threaten the budget.
	var serverPcts, fullPcts []float64
	maxServer, maxFull := 0.0, 0.0
	for _, load := range []float64{0.02, 0.30, 0.60} {
		for _, mode := range []experiment.SteppingMode{
			experiment.ModeExact, experiment.ModeIdleFF, experiment.ModeFrameFF,
			experiment.ModeContendFF,
		} {
			row, err := experiment.MeasureObsOverhead(load, mode, simBits, newStack)
			if err != nil {
				return err
			}
			fmt.Println(row.String())
			rows = append(rows, row)
			serverPcts = append(serverPcts, row.ServerOverheadPct)
			fullPcts = append(fullPcts, row.FullStackOverheadPct)
			if row.ServerOverheadPct > maxServer {
				maxServer = row.ServerOverheadPct
			}
			if row.FullStackOverheadPct > maxFull {
				maxFull = row.FullStackOverheadPct
			}
		}
	}
	median := func(v []float64) float64 {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		if len(s)%2 == 1 {
			return s[len(s)/2]
		}
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	medServer, medFull := median(serverPcts), median(fullPcts)
	rep := report{
		GeneratedAt:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:          runtime.Version(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		Baseline:           "hub wired, retention off, no observability consumers",
		ServerArm:          "baseline + obs HTTP server bound (idle) — grid median gated by budget_pct, per cell by 3×",
		FullStackArm:       "server arm + forensics engine subscribed — reported, not gated",
		BudgetPct:          budgetPct,
		SimBitsPer:         simBits,
		Rows:               rows,
		MedianServerPct:    medServer,
		MaxServerPct:       maxServer,
		MedianFullStackPct: medFull,
		MaxFullStackPct:    maxFull,
		WithinBudget:       medServer <= budgetPct && maxServer <= 3*budgetPct,
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (server slowdown: grid median %.2f%%, worst cell %.2f%%, budget %.1f%%; full stack median %.2f%%, worst %.2f%%)\n",
		path, medServer, maxServer, budgetPct, medFull, maxFull)
	if !rep.WithinBudget {
		return fmt.Errorf("idle observability server overhead (median %.2f%%, worst cell %.2f%%) exceeds %.1f%% budget",
			medServer, maxServer, budgetPct)
	}
	return nil
}

// storeBlock documents the persistence configuration a benchmark report was
// generated under: whether a durable store was attached to the measured runs,
// and the segment/fsync policy any persistence arms used.
type storeBlock struct {
	Enabled      bool   `json:"enabled"`
	SegmentBytes int64  `json:"segment_bytes"`
	Fsync        string `json:"fsync"`
}

// writeStoreOverheadJSON measures the load × stepping-mode grid across the
// three persistence arms — in-memory baseline, + segment-store sink draining
// on NetCommitter-style thresholds, + periodic checkpoints — and writes the
// comparison as JSON (BENCH_PR8.json). The budget gates the persist arm: the
// sink batches encodes and group-fsyncs per drain, so steady-state persistence
// must cost the simulation almost nothing. As with the obs guard, the primary
// gate is the grid-wide median of the paired per-round slowdown with a
// per-cell backstop at 3× the budget; the checkpoint arm is reported for
// transparency but not gated (its cost is a handful of small JSON writes per
// run, visible mostly in the fastest cells).
func writeStoreOverheadJSON(path string, simBits int64, budgetPct float64, segBytes int64, fsync string) error {
	type report struct {
		GeneratedAt         string                        `json:"generated_at"`
		GoVersion           string                        `json:"go_version"`
		GOMAXPROCS          int                           `json:"gomaxprocs"`
		Baseline            string                        `json:"baseline"`
		PersistArm          string                        `json:"persist_arm"`
		CheckpointArm       string                        `json:"checkpoint_arm"`
		Store               storeBlock                    `json:"store"`
		BudgetPct           float64                       `json:"budget_pct"`
		SimBitsPer          int64                         `json:"simulated_bits_per_cell"`
		Rows                []experiment.StoreOverheadRow `json:"rows"`
		IdlePersistPct      float64                       `json:"idle_persist_overhead_pct"`
		MedianPersistPct    float64                       `json:"median_persist_overhead_pct"`
		MaxPersistPct       float64                       `json:"max_persist_overhead_pct"`
		MedianCheckpointPct float64                       `json:"median_checkpoint_overhead_pct"`
		MaxCheckpointPct    float64                       `json:"max_checkpoint_overhead_pct"`
		TotalDiskBytes      int64                         `json:"total_disk_bytes"`
		TotalEventsAppended int64                         `json:"total_events_appended"`
		WithinBudget        bool                          `json:"within_budget"`
	}
	newStack := func(arm experiment.StoreArm) (*telemetry.Hub, func() (experiment.StoreStackStats, error), error) {
		hub := telemetry.NewHub()
		hub.RetainEvents(false)
		if arm == experiment.StoreOff {
			return hub, func() (experiment.StoreStackStats, error) { return experiment.StoreStackStats{}, nil }, nil
		}
		dir, err := os.MkdirTemp("", "michican-store-bench-*")
		if err != nil {
			return nil, nil, err
		}
		st, err := store.Create(dir, store.Meta{Kind: "bench", SegmentBytes: segBytes, Fsync: fsync})
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		var opts store.SinkOptions
		if arm == experiment.StoreCheckpoint {
			// Several checkpoints per cell, so the arm actually measures them.
			opts.CheckpointIntervalBits = 1 << 18
		}
		sink := store.NewSink(st, hub, opts)
		return hub, func() (experiment.StoreStackStats, error) {
			serr := sink.Close(0, false)
			stats := st.Stats()
			res := experiment.StoreStackStats{DiskBytes: stats.DiskBytes, EventsAppended: stats.EventsAppended}
			cerr := st.Close()
			os.RemoveAll(dir)
			if serr != nil {
				return res, serr
			}
			return res, cerr
		}, nil
	}
	header("Persistence overhead grid — in-memory vs +segment store vs +checkpoints")
	var rows []experiment.StoreOverheadRow
	// One-sided budget, as with the obs guard: a negative cell means the
	// persistence arm measured faster (noise in its favour), never a cost.
	var persistPcts, cpPcts []float64
	maxPersist, maxCp := 0.0, 0.0
	var totalDisk, totalEvents int64
	for _, load := range []float64{0.02, 0.30, 0.60} {
		for _, mode := range []experiment.SteppingMode{
			experiment.ModeExact, experiment.ModeIdleFF, experiment.ModeFrameFF,
			experiment.ModeContendFF,
		} {
			row, err := experiment.MeasureStoreOverhead(load, mode, simBits, newStack)
			if err != nil {
				return err
			}
			fmt.Println(row.String())
			rows = append(rows, row)
			persistPcts = append(persistPcts, row.PersistOverheadPct)
			cpPcts = append(cpPcts, row.CheckpointOverheadPct)
			if row.PersistOverheadPct > maxPersist {
				maxPersist = row.PersistOverheadPct
			}
			if row.CheckpointOverheadPct > maxCp {
				maxCp = row.CheckpointOverheadPct
			}
			totalDisk += row.DiskBytes
			totalEvents += row.EventsAppended
		}
	}
	median := func(v []float64) float64 {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		if len(s)%2 == 1 {
			return s[len(s)/2]
		}
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	medPersist, medCp := median(persistPcts), median(cpPcts)
	// The budget gates the idle cell — exact stepping at 2% offered load,
	// the configuration a live deployment leaves -store enabled on. The
	// fast-forward cells are event-rate-bound: FF compresses thousands of
	// simulated bits into each wall microsecond, so the events-per-second
	// the sink must encode and write is inflated by the same factor, and
	// persistence there costs what the disk costs. They are reported in
	// full (as the obs guard reports its ungated forensics arm) but not
	// gated.
	idlePersist := 0.0
	for _, r := range rows {
		if r.Load == 0.02 && r.Mode == experiment.ModeExact {
			idlePersist = r.PersistOverheadPct
		}
	}
	rep := report{
		GeneratedAt:         time.Now().UTC().Format(time.RFC3339),
		GoVersion:           runtime.Version(),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		Baseline:            "hub wired, retention off, no persistence",
		PersistArm:          "baseline + store.Sink draining on default thresholds — idle cell (exact stepping, 2% load) gated by budget_pct; fast-forward cells are event-rate-bound and reported ungated",
		CheckpointArm:       "persist arm + periodic checkpoints every 2^18 bits — reported, not gated",
		Store:               storeBlock{Enabled: true, SegmentBytes: segBytes, Fsync: fsync},
		BudgetPct:           budgetPct,
		SimBitsPer:          simBits,
		Rows:                rows,
		IdlePersistPct:      idlePersist,
		MedianPersistPct:    medPersist,
		MaxPersistPct:       maxPersist,
		MedianCheckpointPct: medCp,
		MaxCheckpointPct:    maxCp,
		TotalDiskBytes:      totalDisk,
		TotalEventsAppended: totalEvents,
		WithinBudget:        idlePersist <= budgetPct,
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (idle cell %+.2f%% vs %.1f%% budget; event-rate-bound grid median %.2f%%, worst cell %.2f%%; +checkpoints median %.2f%%, worst %.2f%%)\n",
		path, idlePersist, budgetPct, medPersist, maxPersist, medCp, maxCp)
	if !rep.WithinBudget {
		return fmt.Errorf("idle-persistence overhead (exact stepping at 2%% load: %+.2f%%) exceeds %.1f%% budget",
			idlePersist, budgetPct)
	}
	return nil
}

// writeWatchOverheadJSON measures the load × stepping-mode grid across the
// three live-SLO arms — forensics-wired baseline, + subscribed watch engine,
// + a 5ms SLO/snapshot poller — and writes the comparison as JSON
// (BENCH_PR10.json). The budget gates the watch arm at the idle cell (exact
// stepping, 2% offered load): the engine folds only matching event kinds and
// every incident-driven rule runs off forensics closures, so an idle alert
// surface must cost the simulation almost nothing. The fast-forward cells are
// event-rate-bound exactly as in the store guard and are reported ungated;
// the polled arm documents reader cost and is likewise only reported.
func writeWatchOverheadJSON(path string, simBits int64, budgetPct float64) error {
	type report struct {
		GeneratedAt      string                        `json:"generated_at"`
		GoVersion        string                        `json:"go_version"`
		GOMAXPROCS       int                           `json:"gomaxprocs"`
		Baseline         string                        `json:"baseline"`
		WatchArm         string                        `json:"watch_arm"`
		PolledArm        string                        `json:"polled_arm"`
		BudgetPct        float64                       `json:"budget_pct"`
		SimBitsPer       int64                         `json:"simulated_bits_per_cell"`
		Rows             []experiment.WatchOverheadRow `json:"rows"`
		IdleWatchPct     float64                       `json:"idle_watch_overhead_pct"`
		MedianWatchPct   float64                       `json:"median_watch_overhead_pct"`
		MaxWatchPct      float64                       `json:"max_watch_overhead_pct"`
		MedianPolledPct  float64                       `json:"median_polled_overhead_pct"`
		MaxPolledPct     float64                       `json:"max_polled_overhead_pct"`
		TotalTransitions int64                         `json:"total_transitions"`
		TotalVerdicts    int64                         `json:"total_verdicts"`
		WithinBudget     bool                          `json:"within_budget"`
	}
	header("Live-SLO overhead grid — forensics baseline vs +watch engine vs +poller")
	var rows []experiment.WatchOverheadRow
	var watchPcts, polledPcts []float64
	maxWatch, maxPolled := 0.0, 0.0
	var totalTransitions, totalVerdicts int64
	for _, load := range []float64{0.02, 0.30, 0.60} {
		for _, mode := range []experiment.SteppingMode{
			experiment.ModeExact, experiment.ModeIdleFF, experiment.ModeFrameFF,
			experiment.ModeContendFF,
		} {
			row, err := experiment.MeasureWatchOverhead(load, mode, simBits)
			if err != nil {
				return err
			}
			fmt.Println(row.String())
			rows = append(rows, row)
			watchPcts = append(watchPcts, row.WatchOverheadPct)
			polledPcts = append(polledPcts, row.PolledOverheadPct)
			if row.WatchOverheadPct > maxWatch {
				maxWatch = row.WatchOverheadPct
			}
			if row.PolledOverheadPct > maxPolled {
				maxPolled = row.PolledOverheadPct
			}
			totalTransitions += row.Transitions
			totalVerdicts += row.Verdicts
		}
	}
	median := func(v []float64) float64 {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		if len(s)%2 == 1 {
			return s[len(s)/2]
		}
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	medWatch, medPolled := median(watchPcts), median(polledPcts)
	idleWatch := 0.0
	for _, r := range rows {
		if r.Load == 0.02 && r.Mode == experiment.ModeExact {
			idleWatch = r.WatchOverheadPct
		}
	}
	rep := report{
		GeneratedAt:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:        runtime.Version(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		Baseline:         "hub wired, retention off, forensics engine attached, no watch engine",
		WatchArm:         "baseline + watch.New subscribed (SLO folds + alert rules) — idle cell (exact stepping, 2% load) gated by budget_pct; fast-forward cells are event-rate-bound and reported ungated",
		PolledArm:        "watch arm + background SLO()/Snapshot() reader every 5ms — reported, not gated",
		BudgetPct:        budgetPct,
		SimBitsPer:       simBits,
		Rows:             rows,
		IdleWatchPct:     idleWatch,
		MedianWatchPct:   medWatch,
		MaxWatchPct:      maxWatch,
		MedianPolledPct:  medPolled,
		MaxPolledPct:     maxPolled,
		TotalTransitions: totalTransitions,
		TotalVerdicts:    totalVerdicts,
		WithinBudget:     idleWatch <= budgetPct,
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (idle cell %+.2f%% vs %.1f%% budget; grid median %.2f%%, worst cell %.2f%%; +poller median %.2f%%, worst %.2f%%)\n",
		path, idleWatch, budgetPct, medWatch, maxWatch, medPolled, maxPolled)
	if !rep.WithinBudget {
		return fmt.Errorf("watch-engine overhead (exact stepping at 2%% load: %+.2f%%) exceeds %.1f%% budget",
			idleWatch, budgetPct)
	}
	return nil
}

// profiledRun wraps run with the pprof plumbing and the throughput summary,
// so main can os.Exit without losing deferred profile writes.
func profiledRun(cfg experiment.Config, table, fig int, exp string, all bool, fsms int, cpuprofile, memprofile string, hub *telemetry.Hub) error {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	startBits := bus.SimulatedBits()
	startIdle, startFrame, startContend := bus.IdleForwardedTotal(), bus.FrameForwardedTotal(), bus.ContendForwardedTotal()
	startSplice := bus.SpliceForwardedTotal()
	startWall := time.Now()
	err := run(cfg, table, fig, exp, all, fsms)
	wall := time.Since(startWall)
	if simBits := bus.SimulatedBits() - startBits; simBits > 0 && wall > 0 {
		fmt.Printf("\nsimulated %d bus bits in %v (%.1f Mbit/s of bus time per wall-clock second)\n",
			simBits, wall.Round(time.Millisecond), float64(simBits)/wall.Seconds()/1e6)
		idle := bus.IdleForwardedTotal() - startIdle
		frame := bus.FrameForwardedTotal() - startFrame
		contend := bus.ContendForwardedTotal() - startContend
		splice := bus.SpliceForwardedTotal() - startSplice
		fmt.Printf("fast-path coverage: idle %d bits (%.1f%%), frame %d bits (%.1f%%), contend %d bits (%.1f%%), splice %d bits (%.1f%%)\n",
			idle, 100*float64(idle)/float64(simBits),
			frame, 100*float64(frame)/float64(simBits),
			contend, 100*float64(contend)/float64(simBits),
			splice, 100*float64(splice)/float64(simBits))
		if hub != nil {
			hub.Registry().Gauge("michican_sim_bits_per_second").Set(float64(simBits) / wall.Seconds())
		}
	}
	if hub != nil {
		header("Telemetry metrics snapshot")
		if werr := hub.Registry().WriteText(os.Stdout); werr != nil && err == nil {
			err = werr
		}
	}

	if memprofile != "" {
		f, ferr := os.Create(memprofile)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		runtime.GC()
		if ferr := pprof.WriteHeapProfile(f); ferr != nil {
			return ferr
		}
	}
	return err
}

func run(cfg experiment.Config, table, fig int, exp string, all bool, fsms int) error {
	did := false
	if all || table == 1 {
		did = true
		if err := printTable1(cfg); err != nil {
			return err
		}
	}
	if all || table == 2 {
		did = true
		if err := printTable2(cfg); err != nil {
			return err
		}
	}
	if all || table == 3 {
		did = true
		if err := printTable3(cfg); err != nil {
			return err
		}
	}
	if all || fig == 6 {
		did = true
		if err := printFig6(cfg); err != nil {
			return err
		}
	}
	if all || exp == "detection" {
		did = true
		if err := printDetection(cfg, fsms); err != nil {
			return err
		}
	}
	if all || exp == "multiattacker" {
		did = true
		if err := printMultiAttacker(cfg); err != nil {
			return err
		}
	}
	if all || exp == "cpu" {
		did = true
		if err := printCPU(cfg); err != nil {
			return err
		}
	}
	if all || exp == "busload" {
		did = true
		if err := printBusLoad(cfg); err != nil {
			return err
		}
	}
	if all || exp == "parksense" {
		did = true
		if err := printParkSense(cfg); err != nil {
			return err
		}
	}
	if all || exp == "sched" {
		did = true
		if err := printSched(); err != nil {
			return err
		}
	}
	if all || exp == "sweep" {
		did = true
		if err := printSweep(cfg); err != nil {
			return err
		}
	}
	if all || exp == "split" {
		did = true
		if err := printSplit(cfg); err != nil {
			return err
		}
	}
	if !did {
		return fmt.Errorf("nothing selected; try -all (see -h)")
	}
	return nil
}

func header(title string) {
	fmt.Printf("\n================ %s ================\n", title)
}

func printTable1(cfg experiment.Config) error {
	header("Table I — countermeasure comparison")
	fmt.Print(experiment.FormatTable1(experiment.Table1()))
	fmt.Println("\nmeasured head-to-head (same persistent spoofer, IDs relative to attack start):")
	rows, err := experiment.DefenseComparison(cfg)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r.String())
	}
	return nil
}

func printTable2(cfg experiment.Config) error {
	header("Table II — empirical bus-off time (6 experiments)")
	fmt.Printf("bus=%v, recording=%v per experiment, defender=0x173\n\n", cfg.Rate, cfg.Duration)
	rows, err := experiment.Table2(cfg)
	if err != nil {
		return err
	}
	fmt.Println("paper (50 kbit/s): Exp1 24.6ms  Exp2 24.2ms  Exp3 25.1ms  Exp4 24.9ms")
	fmt.Println("                   Exp5 39.0/35.4ms  Exp6 24.9ms")
	for _, r := range rows {
		fmt.Println(r.String())
	}
	return nil
}

func printTable3(cfg experiment.Config) error {
	header("Table III — theoretical bus-off time")
	for _, r := range experiment.Table3(experiment.Interruptions{}) {
		fmt.Println(r.String())
	}
	fmt.Printf("clean worst case: 16·(%d+%d) = %d bits\n",
		experiment.TheoryActiveBits, experiment.TheoryPassiveBits, experiment.TheoryTotalBits)
	v, err := experiment.ValidateTable3(cfg)
	if err != nil {
		return err
	}
	fmt.Println("closed loop against the experiment-1 trace:")
	fmt.Println(" ", v.String())
	return nil
}

func printFig6(cfg experiment.Config) error {
	header("Fig. 6 — Experiment-5 interleaving pattern")
	res, err := experiment.Fig6(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("attempt owners (6 = 0x066 'brown', 7 = 0x067 'yellow'):\n%s\n\n%s\n",
		res.Pattern(), res.Render())
	fmt.Printf("bus-off: 0x066 = %d bits (%v), 0x067 = %d bits (%v)\n",
		res.BusOffBits66, cfg.Defaults().Rate.Duration(res.BusOffBits66),
		res.BusOffBits67, cfg.Defaults().Rate.Duration(res.BusOffBits67))
	fmt.Println("paper: 0x066 runs 16 active attempts, then 0x067 transmits twice per")
	fmt.Println("0x066 retransmission (suspend rule); 39.0ms vs 35.4ms at 50 kbit/s")
	return nil
}

func printDetection(cfg experiment.Config, fsms int) error {
	header("Sec. V-B — detection latency over random FSMs")
	res, err := experiment.DetectionLatency(fsms, 64, cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Println(res.String())
	fmt.Println("paper: 160,000 FSMs, 100% detection, mean detection position ≈ 9 bits")
	return nil
}

func printMultiAttacker(cfg experiment.Config) error {
	header("Sec. V-C — multi-attacker sweep")
	rows, err := experiment.MultiAttacker(cfg, 5)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r.String())
	}
	fmt.Println("paper: A=3 → 3515 bits, A=4 → 4660 bits, A≥5 inoperable (5000-bit budget)")
	return nil
}

func printCPU(cfg experiment.Config) error {
	header("Sec. V-D — CPU utilization (8 vehicle buses)")
	runs := []struct {
		profile mcu.Profile
		rate    bus.Rate
		light   bool
	}{
		{mcu.ArduinoDue, bus.Rate125k, false},
		{mcu.ArduinoDue, bus.Rate125k, true},
		{mcu.ArduinoDue, bus.Rate250k, false},
		{mcu.NXPS32K144, bus.Rate500k, false},
	}
	for _, r := range runs {
		rows, err := experiment.CPUUtilization(cfg, r.profile, r.rate, r.light)
		if err != nil {
			return err
		}
		for _, row := range rows {
			fmt.Println(row.String())
		}
		fmt.Println()
	}
	fmt.Println("paper: Due@125k ≈40% full / ≈30% light; Due unreliable above 125k;")
	fmt.Println("       S32K144@500k ≈44%")
	return nil
}

func printBusLoad(cfg experiment.Config) error {
	header("Sec. V-E — bus load & Parrot comparison")
	rows, err := experiment.BusLoad(cfg)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r.String())
	}
	fmt.Println("paper: Parrot floods at ≈97.7%; MichiCAN adds only a short spike around")
	fmt.Println("       the ≈25ms bus-off episode and at least halves Parrot's load")
	return nil
}

func printSweep(cfg experiment.Config) error {
	header("Detection latency vs IVN size (Sec. V-B, swept)")
	rows, err := experiment.DetectionSweep([]int{2, 4, 8, 16, 32, 64, 128, 256}, 500, cfg.Seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r.String())
	}
	fmt.Println("the paper's aggregate mean of ≈9 bits corresponds to dense IVNs (N ≳ 128)")
	return nil
}

func printSplit(cfg experiment.Config) error {
	header("Split deployment 𝔼₁/𝔼₂ (Sec. IV-A light/full scenario)")
	res, err := experiment.SplitScenario(cfg)
	if err != nil {
		return err
	}
	fmt.Println(res.String())
	fmt.Println("the light half saves CPU while the full half preserves DoS coverage and")
	fmt.Println("each light member still eradicates spoofing of its own ID")
	return nil
}

func printSched() error {
	header("Schedulability & bus-off budgets (Davis et al. [49])")
	rows, err := experiment.Schedulability(bus.Rate500k)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r.String())
	}
	fmt.Println("paper's rule of thumb: a 10ms deadline at 500 kbit/s allows 5000 bits of")
	fmt.Println("bus-off overhead; the per-bus budgets above refine it with the real slack")
	return nil
}

func printParkSense(cfg experiment.Config) error {
	header("Sec. V-F — on-vehicle test (2017 Pacifica, ParkSense)")
	res, err := experiment.ParkSense(cfg)
	if err != nil {
		return err
	}
	fmt.Println(res.String())
	for _, tr := range res.Timeline {
		fmt.Printf("  t=%v  %v\n", cfg.Defaults().Rate.Duration(int64(tr.At)), tr.Status)
	}
	return nil
}
