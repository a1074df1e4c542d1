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
	"time"

	"michican/internal/bus"
	"michican/internal/experiment"
	"michican/internal/mcu"
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
		workers    = flag.Int("workers", 0, "trial-runner pool size (0 = GOMAXPROCS, 1 = serial); rows are identical either way, and -metrics/-http always run serially so their snapshot is reproducible")
		mode       = flag.String("mode", "", "stepping mode, the top rung of the fast-forward ladder: exact|idle-ff|contend-ff|splice-ff (default: the full ladder)")
		jsonOut    = flag.String("json", "", "measure the throughput grid (load × stepping mode) and write machine-readable results to this file")
		gridBits   = flag.Int64("gridbits", 2_000_000, "simulated bit times per throughput-grid cell")
		metrics    = flag.Bool("metrics", false, "collect telemetry metrics during the run and print a Prometheus-style snapshot")
		httpAddr   = flag.String("http", "", "serve live observability (/metrics /incidents /snapshot /debug/pprof) on this address while the run advances (implies -metrics)")
		telOver    = flag.Bool("telemetry-overhead", false, "CI's telemetry guard: best of three uncalibrated runs per arm, no hub vs a metrics-only hub (contend-ff, 30% load); exit nonzero over -overhead-threshold")
		telOverTh  = flag.Float64("overhead-threshold", 2.0, "max tolerated telemetry overhead in percent for -telemetry-overhead")
		overhead   = flag.String("overhead", "", "measure one layer's paired overhead grid and exit nonzero over -overhead-budget: telemetry|obs|store|watch")
		overJSON   = flag.String("overhead-json", "", "also write the -overhead grid as JSON to this file")
		overBudget = flag.Float64("overhead-budget", 2.0, "slowdown budget in percent for the gated arm of -overhead")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	if *telOver {
		if err := runTelemetryGuard(*gridBits, *telOverTh); err != nil {
			fmt.Fprintln(os.Stderr, "michican-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *overhead != "" {
		layer, err := overheadLayerFor(*overhead)
		if err == nil {
			err = runOverhead(layer, *gridBits, *overBudget, *overJSON)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "michican-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *jsonOut != "" {
		if err := writeThroughputJSON(*jsonOut, *gridBits, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "michican-bench:", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiment.Config{
		Rate:     bus.Rate(*rate),
		Duration: *duration,
		Seed:     *seed,
		Workers:  *workers,
		Mode:     experiment.SteppingMode(*mode),
	}
	var hub *telemetry.Hub
	if *metrics || *httpAddr != "" {
		// Metrics-only collection: counters and histograms fold on emit,
		// the raw event log is dropped, so long -all runs stay bounded.
		// Under -http the forensics engine streams off the shared hub and
		// the server exposes it (plus metrics and pprof) while the
		// experiments advance.
		stack := experiment.NewStack(telemetry.NewHub(), experiment.StackConfig{Forensics: *httpAddr != ""})
		defer stack.Close()
		hub = stack.Hub
		cfg.Hub = hub
		if *httpAddr != "" {
			server, err := stack.Serve(*httpAddr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "michican-bench:", err)
				os.Exit(1)
			}
			fmt.Printf("observability server listening on %s\n", server.URL())
		}
	}
	if err := profiledRun(cfg, *table, *fig, *exp, *all, *fsms, *cpuprofile, *memprofile, hub); err != nil {
		fmt.Fprintln(os.Stderr, "michican-bench:", err)
		os.Exit(1)
	}
}

// runTelemetryGuard backs the CI telemetry-overhead step: it measures the
// contend-ff throughput with no hub and with a metrics-only hub wired in,
// prints both, and fails when the relative cost exceeds the threshold.
func runTelemetryGuard(simBits int64, thresholdPct float64) error {
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
// perf trajectory), echoing each row to stdout as it lands. NumCPU and
// GOMAXPROCS ride in the header so scaling curves from different machines
// stay interpretable — a flat curve on a 1-core runner is physics,
// not a regression.
func writeThroughputJSON(path string, simBits int64, workers int) error {
	type report struct {
		GeneratedAt string                     `json:"generated_at"`
		GoVersion   string                     `json:"go_version"`
		GOMAXPROCS  int                        `json:"gomaxprocs"`
		NumCPU      int                        `json:"num_cpu"`
		Workers     int                        `json:"workers"`
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
	header("Throughput grid — exact vs idle-FF vs contend-FF vs splice-FF")
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
	// 100 vehicles run both arms; 1,000 run shared only, since their
	// private arm holds about 4.3 GB.
	for _, arm := range []struct {
		n      int
		shared bool
	}{{100, false}, {100, true}, {1000, true}} {
		row, err := experiment.MeasureFleetPlanCache(arm.n, arm.shared, 1)
		if err != nil {
			return err
		}
		fmt.Println(row.String())
		cacheRows = append(cacheRows, row)
	}
	out, err := json.MarshalIndent(report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Workers:     workers,
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
	startIdle, startContend, startSplice := bus.IdleForwardedTotal(), bus.ContendForwardedTotal(), bus.SpliceForwardedTotal()
	startWall := time.Now()
	err := run(cfg, table, fig, exp, all, fsms)
	wall := time.Since(startWall)
	if simBits := bus.SimulatedBits() - startBits; simBits > 0 && wall > 0 {
		fmt.Printf("\nsimulated %d bus bits in %v (%.1f Mbit/s of bus time per wall-clock second)\n",
			simBits, wall.Round(time.Millisecond), float64(simBits)/wall.Seconds()/1e6)
		idle := bus.IdleForwardedTotal() - startIdle
		contend := bus.ContendForwardedTotal() - startContend
		splice := bus.SpliceForwardedTotal() - startSplice
		fmt.Printf("fast-path coverage: idle %d bits (%.1f%%), contend %d bits (%.1f%%), splice %d bits (%.1f%%)\n",
			idle, 100*float64(idle)/float64(simBits),
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
	studies := []struct {
		selected bool
		print    func() error
	}{
		{table == 1, func() error { return printTable1(cfg) }},
		{table == 2, func() error { return printTable2(cfg) }},
		{table == 3, func() error { return printTable3(cfg) }},
		{fig == 6, func() error { return printFig6(cfg) }},
		{exp == "detection", func() error { return printDetection(cfg, fsms) }},
		{exp == "multiattacker", func() error { return printMultiAttacker(cfg) }},
		{exp == "cpu", func() error { return printCPU(cfg) }},
		{exp == "busload", func() error { return printBusLoad(cfg) }},
		{exp == "parksense", func() error { return printParkSense(cfg) }},
		{exp == "sched", printSched},
		{exp == "sweep", func() error { return printSweep(cfg) }},
		{exp == "split", func() error { return printSplit(cfg) }},
	}
	did := false
	for _, st := range studies {
		if all || st.selected {
			did = true
			if err := st.print(); err != nil {
				return err
			}
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
