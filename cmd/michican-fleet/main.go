// Command michican-fleet runs many independent vehicle simulations behind
// one control plane: shared-nothing workers, one per GOMAXPROCS, each
// advancing a shard of full restbus + defense + attacker vehicles, with
// per-vehicle telemetry folded into a fleet-wide aggregate through
// thresholded net commits and served over HTTP (/fleet/*).
//
//	michican-fleet -vehicles 64 -http 127.0.0.1:6180      # run a fleet
//	michican-fleet -vehicles 8 -watch -store run          # persist it
//	michican-fleet -store run -resume                     # continue after a crash
//	michican-fleet -store run -store-digest               # segment digests
//	michican-fleet -agg-overhead -agg-budget 5            # CI overhead guard
//
// The fleet's end-to-end benchmark is benchmark/'s fleet-attacked workload.
package main

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"michican/internal/controller"
	"michican/internal/core"
	"michican/internal/experiment"
	"michican/internal/fleet"
	"michican/internal/forensics"
	"michican/internal/obs"
	"michican/internal/store"
	"michican/internal/watch"
)

// workerStallBound is how long a live vehicle's position mirror may sit
// unchanged before the fleet health probes flag the worker as stalled. Fleet
// workers advance vehicles in 64Kbit slices that finish in well under a
// second, so half a minute of silence means a wedged or dead worker, not a
// slow one.
const workerStallBound = 30 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// daemonParams are the daemon mode's flags.
type daemonParams struct {
	vehicles       int
	horizon, seed  int64
	httpAddr       string
	linger         time.Duration
	storeDir       string
	resume         bool
	checkpointBits int64
	watch, top     bool
}

// run is the whole command. It returns the exit status: 2 for a bad flag,
// as flag.ExitOnError exits, 0 for -h, and 1 for any other failure, which
// it reports on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		p   daemonParams
		cfg fleet.Config
	)
	fs.IntVar(&p.vehicles, "vehicles", 16, "initial fleet size")
	fs.IntVar(&cfg.Workers, "workers", 0, "shared-nothing worker count (0 = GOMAXPROCS)")
	fs.Int64Var(&p.seed, "seed", 1, "fleet seed; per-vehicle seeds derive via experiment.DeriveSeed")
	fs.Int64Var(&p.horizon, "horizon-bits", 2_000_000, "simulated bits per vehicle before it retires (0 = run until removed)")
	fs.Int64Var(&cfg.SliceBits, "slice-bits", 65536, "scheduling quantum per vehicle per worker turn")
	fs.StringVar(&p.httpAddr, "http", "", "serve the fleet observability surface (/fleet/*) on this address")
	fs.DurationVar(&p.linger, "linger", 0, "keep the HTTP server up this long after the fleet drains")
	fs.StringVar(&p.storeDir, "store", "", "persist every vehicle into a durable store rooted at this directory (one subdirectory per vehicle, DESIGN.md §8)")
	fs.BoolVar(&p.resume, "resume", false, "resume the roster recorded in -store from each vehicle's last checkpoint instead of minting fresh vehicles")
	fs.Int64Var(&p.checkpointBits, "checkpoint-interval", 1<<20, "bits of sim progress between automatic checkpoints under -store")
	fs.BoolVar(&p.watch, "watch", false, "attach a live SLO/alerting engine to every vehicle (serves /fleet/alerts, persists per-vehicle alert logs under -store)")
	fs.BoolVar(&p.top, "top", false, "render a live ANSI dashboard (SLO scoreboard, active alerts, vehicle progress) on stdout; implies -watch")
	var (
		aggOverhead = fs.Bool("agg-overhead", false, "measure fleet aggregation overhead vs the same vehicles run standalone and exit nonzero over -agg-budget")
		aggBudget   = fs.Float64("agg-budget", 5.0, "aggregation overhead budget in percent for -agg-overhead")
		storeDigest = fs.Bool("store-digest", false, "print per-vehicle digests of the -store directory's segment files (CI byte-comparison) and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if p.top {
		p.watch = true
	}

	var err error
	switch {
	case *storeDigest:
		err = runStoreDigest(stdout, p.storeDir)
	case *aggOverhead:
		err = runAggOverhead(stdout, cfg, p.vehicles, p.horizon, p.seed, *aggBudget)
	default:
		err = runFleet(stdout, cfg, p)
	}
	if err != nil {
		fmt.Fprintln(stderr, "michican-fleet:", err)
		return 1
	}
	return 0
}

// buildAndAdd mints vehicle i from the fleet seed and joins it; Add wires
// the fleet's plan cache in.
func buildAndAdd(f *fleet.Fleet, fleetSeed int64, i int, horizon int64) error {
	v, err := experiment.NewFleetVehicle(experiment.FleetSpecAt(fleetSeed, i, horizon, false))
	if err != nil {
		return err
	}
	return f.Add(v)
}

// planCacheMetrics is the /fleet/metrics appender exposing the counters of
// the fleet's plan cache and of the splice summaries it scopes.
func planCacheMetrics(f *fleet.Fleet) obs.FleetOption {
	return obs.WithFleetMetrics(func(w io.Writer) { writePlanCacheMetrics(w, f.Plans()) })
}

// writePlanCacheMetrics writes the plan cache's and the splice summary
// tables' counters in the Prometheus text format.
func writePlanCacheMetrics(w io.Writer, plans *controller.PlanSource) {
	st := plans.Stats()
	fmt.Fprintf(w, "michican_fleet_plan_cache_hits_total %d\n", st.Hits)
	fmt.Fprintf(w, "michican_fleet_plan_cache_misses_total %d\n", st.Misses)
	fmt.Fprintf(w, "michican_fleet_plan_cache_plans %d\n", st.Plans)
	fmt.Fprintf(w, "michican_fleet_plan_cache_resident_bytes %d\n", st.ResidentBytes)
	sp := core.SpliceTablesOf(plans).Stats()
	fmt.Fprintf(w, "michican_fleet_splice_cache_compiles_total %d\n", sp.Compiles)
	fmt.Fprintf(w, "michican_fleet_splice_cache_hits_total %d\n", sp.Hits)
	fmt.Fprintf(w, "michican_fleet_splice_cache_declines_total %d\n", sp.Declines)
	fmt.Fprintf(w, "michican_fleet_splice_cache_resets_total %d\n", sp.Resets)
	fmt.Fprintf(w, "michican_fleet_splice_cache_fingerprints %d\n", sp.Fingerprints)
	fmt.Fprintf(w, "michican_fleet_splice_cache_resident_bytes %d\n", sp.ResidentBytes)
}

// printPlanCache prints the one-line summaries of the fleet's plan cache
// and of the splice summary tables it scopes.
func printPlanCache(w io.Writer, plans *controller.PlanSource) {
	st := plans.Stats()
	fmt.Fprintf(w, "plan cache: %d plans resident (%d bytes), %d hits / %d misses (%.1f%% hit rate)\n",
		st.Plans, st.ResidentBytes, st.Hits, st.Misses, 100*plans.HitRate())
	sp := core.SpliceTablesOf(plans).Stats()
	fmt.Fprintf(w, "splice cache: %d fingerprints (%d bytes), %d compiles, %d hits, %d declines, %d resets\n",
		sp.Fingerprints, sp.ResidentBytes, sp.Compiles, sp.Hits, sp.Declines, sp.Resets)
}

// vehicleDir names one vehicle's store subdirectory: the roster IS the
// directory listing, so a crashed daemon resumes by re-reading it.
func vehicleDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("v%05d", i))
}

// runFleet is the daemon mode: build the fleet, serve it, drain it. With a
// store directory every vehicle persists (events stream through a skip-capable
// sink, retirement appends the incident log and a final Completed checkpoint
// via OnFinalize), and -resume rebuilds the roster from the directory listing,
// continuing each vehicle from its newest checkpoint.
func runFleet(stdout io.Writer, cfg fleet.Config, p daemonParams) error {
	var collector *watch.FleetCollector
	if p.watch {
		collector = watch.NewFleetCollector(nil)
	}
	var finErr atomic.Value
	if p.storeDir != "" {
		cfg.OnFinalize = func(v fleet.Vehicle, incs []forensics.Incident) {
			dv, ok := v.(*experiment.DurableVehicle)
			if !ok {
				return
			}
			if err := errors.Join(dv.FinalizeDurable(incs), dv.Close()); err != nil {
				finErr.Store(fmt.Errorf("finalize vehicle %d: %w", v.ID(), err))
			}
		}
	}
	f := fleet.New(cfg)
	opts := store.SinkOptions{CheckpointIntervalBits: p.checkpointBits}
	vehicles := p.vehicles
	switch {
	case p.storeDir != "" && p.resume:
		// The stored spec carries each vehicle's Watch bit, so a resumed
		// roster re-attaches engines without re-stating -watch.
		resumed, completed, err := resumeRoster(f, p.storeDir, opts, collector)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "resumed roster from %s: %d vehicles continuing, %d already complete\n",
			p.storeDir, resumed, completed)
		if resumed == 0 {
			return nil
		}
		vehicles = resumed
	default:
		for i := 0; i < vehicles; i++ {
			spec := experiment.FleetSpecAt(p.seed, i, p.horizon, false)
			spec.Watch = p.watch
			var (
				v interface {
					fleet.Vehicle
					Watch() *watch.Engine
				}
				err error
			)
			if p.storeDir != "" {
				v, err = experiment.StartDurableVehicle(vehicleDir(p.storeDir, i), spec, 0, "", opts)
			} else {
				v, err = experiment.NewFleetVehicle(spec)
			}
			if err != nil {
				return err
			}
			if err := f.Add(v); err != nil {
				return err
			}
			if collector != nil && v.Watch() != nil {
				collector.Register(spec.Index, v.Watch())
			}
		}
	}
	// Fleet self-health: a worker-stall watcher over the shards' atomic
	// position mirrors feeds the liveness probes and the dashboard.
	mon := &watch.Monitor{}
	mon.Attach(watch.NewFleetWatcher(func() []watch.VehicleProgress {
		infos := f.Vehicles()
		out := make([]watch.VehicleProgress, 0, len(infos))
		for _, vi := range infos {
			out = append(out, watch.VehicleProgress{ID: vi.ID, NowBits: vi.NowBits, Done: vi.Done})
		}
		return out
	}, workerStallBound).Check)

	var server *obs.Server
	if p.httpAddr != "" {
		fleetOpts := []obs.FleetOption{planCacheMetrics(f), obs.WithFleetHealth(mon.Check)}
		if collector != nil {
			fleetOpts = append(fleetOpts, obs.WithFleetAlerts(func() watch.FleetAlertView {
				return collector.Snapshot(time.Now())
			}))
		}
		var err error
		server, err = obs.ServeFleet(p.httpAddr, f, fleetOpts...)
		if err != nil {
			return err
		}
		defer server.Close()
		fmt.Fprintf(stdout, "fleet control plane listening on %s\n", server.URL())
	}
	h := f.Health()
	fmt.Fprintf(stdout, "fleet: %d vehicles, %d workers, slice=%d bits, commit threshold=%d events / interval=%d bits\n",
		vehicles, h.Workers, h.SliceBits, h.CommitThreshold, h.CommitIntervalBits)
	start := time.Now()
	var stopTop chan struct{}
	var topDone sync.WaitGroup
	if p.top {
		stopTop = make(chan struct{})
		topDone.Add(1)
		go func() {
			defer topDone.Done()
			runDashboard(stdout, f, collector, mon, start, stopTop)
		}()
	}
	f.Start()
	if p.horizon > 0 {
		f.Wait()
	} else {
		select {} // run until killed; the HTTP surface is the interface
	}
	f.Stop()
	if stopTop != nil {
		close(stopTop)
		topDone.Wait()
	}
	if e := finErr.Load(); e != nil {
		return e.(error)
	}
	wall := time.Since(start)
	printSummary(stdout, f, wall)
	printPlanCache(stdout, f.Plans())
	if server != nil && p.linger > 0 {
		fmt.Fprintf(stdout, "lingering %v for inspection...\n", p.linger)
		time.Sleep(p.linger)
	}
	return nil
}

// resumeRoster re-adds every unfinished vehicle recorded under root. Each
// subdirectory is one vehicle store; ResumeDurableVehicle rewinds it to its
// newest checkpoint and rebuilds the vehicle from the stored spec, so the
// re-advanced run lands byte-identical to an uninterrupted one. Vehicles whose
// final checkpoint is Completed are left alone.
func resumeRoster(f *fleet.Fleet, root string, opts store.SinkOptions, collector *watch.FleetCollector) (resumed, completed int, err error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return 0, 0, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "v") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return 0, 0, fmt.Errorf("no vehicle stores under %s", root)
	}
	for _, name := range names {
		dv, err := experiment.ResumeDurableVehicle(filepath.Join(root, name), opts)
		if errors.Is(err, experiment.ErrRunComplete) {
			completed++
			continue
		}
		if err != nil {
			return resumed, completed, fmt.Errorf("resume %s: %w", name, err)
		}
		if err := f.Add(dv); err != nil {
			return resumed, completed, err
		}
		if collector != nil && dv.Watch() != nil {
			collector.Register(dv.ID(), dv.Watch())
		}
		resumed++
	}
	return resumed, completed, nil
}

// runDashboard is the -top loop: every half second it assembles one frame
// from the fleet's atomic position mirrors and the collector's merged alert
// view and repaints the terminal. Everything it reads is lock-free or
// internally locked on the reader side, so the dashboard never stalls a
// simulation worker. A final frame is painted on shutdown so the end state
// stays on screen.
func runDashboard(stdout io.Writer, f *fleet.Fleet, collector *watch.FleetCollector, mon *watch.Monitor, start time.Time, stop <-chan struct{}) {
	var lastBits int64
	var lastAt time.Time
	frame := func() {
		now := time.Now()
		infos := f.Vehicles()
		var view watch.FleetAlertView
		if collector != nil {
			view = collector.Snapshot(now)
		} else {
			view.Health = mon.Check(now)
		}
		activeByID := make(map[int]int, len(view.Vehicles))
		for _, va := range view.Vehicles {
			activeByID[va.ID] = len(va.Active)
		}
		var totalBits int64
		rows := make([]watch.DashboardVehicle, 0, len(infos))
		for _, vi := range infos {
			totalBits += vi.NowBits
			rows = append(rows, watch.DashboardVehicle{
				ID: vi.ID, Worker: vi.Worker,
				NowBits: vi.NowBits, HorizonBits: vi.HorizonBits,
				Done: vi.Done, Incidents: vi.Incidents,
				Active: activeByID[vi.ID],
			})
		}
		bps := 0.0
		if !lastAt.IsZero() {
			if dt := now.Sub(lastAt).Seconds(); dt > 0 {
				bps = float64(totalBits-lastBits) / dt
			}
		}
		lastBits, lastAt = totalBits, now
		io.WriteString(stdout, watch.RenderDashboard(watch.DashboardData{
			Title:      fmt.Sprintf("fleet (%d vehicles)", len(infos)),
			Elapsed:    now.Sub(start),
			BitsPerSec: bps,
			Vehicles:   rows,
			View:       view,
		}))
	}
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	frame()
	for {
		select {
		case <-stop:
			frame()
			return
		case <-ticker.C:
			frame()
		}
	}
}

// runStoreDigest prints one line per vehicle store: a SHA-256 over the
// segment files (name, size, payload — checkpoints excluded, since a resumed
// run legitimately checkpoints at different cursors). Two runs of the same
// fleet are byte-identical exactly when their digest outputs match; the CI
// crash-resume smoke diffs them.
func runStoreDigest(stdout io.Writer, root string) error {
	if root == "" {
		return fmt.Errorf("-store-digest needs -store <dir>")
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	sort.Strings(dirs)
	if len(dirs) == 0 {
		dirs = []string{"."} // a flat (single-run) store: digest the root itself
	}
	for _, d := range dirs {
		segs, err := filepath.Glob(filepath.Join(root, d, "*.seg"))
		if err != nil {
			return err
		}
		sort.Strings(segs)
		h := sha256.New()
		var bytes int64
		for _, seg := range segs {
			b, err := os.ReadFile(seg)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", filepath.Base(seg), len(b))
			h.Write(b)
			bytes += int64(len(b))
		}
		fmt.Fprintf(stdout, "%s  %x  segments=%d bytes=%d\n", d, h.Sum(nil), len(segs), bytes)
	}
	return nil
}

// printSummary renders the end-of-run fleet accounting.
func printSummary(w io.Writer, f *fleet.Fleet, wall time.Duration) {
	h := f.Health()
	mv := f.Aggregate().MetricsView()
	iv := f.Aggregate().IncidentsView()
	fmt.Fprintf(w, "drained: %d vehicles (%d removed early) in %v\n", h.Completed, h.Removed, wall.Round(time.Millisecond))
	fmt.Fprintf(w, "aggregate: %d sim bits (%.1f Mbit/s of bus time), %d incidents (%d eradicated, %d frames leaked)\n",
		mv.SimBits, float64(mv.SimBits)/wall.Seconds()/1e6,
		iv.Totals.Incidents, iv.Totals.Eradicated, iv.Totals.FramesLeaked)
	ratio := float64(mv.LogicalUpdates)
	if mv.CommitCalls > 0 {
		ratio /= float64(mv.CommitCalls)
	}
	fmt.Fprintf(w, "net-commit economy: %d logical updates folded into %d commit calls (%.0f updates/commit)\n",
		mv.LogicalUpdates, mv.CommitCalls, ratio)
}

// runAggOverhead is the CI guard: the same vehicle set is run once through
// the fleet (workers=1, default commit policy) and once standalone (a plain
// serial loop over the identical slice schedule, no fleet layer, no
// commits); the difference is the whole cost of sharding + thresholded
// aggregation. Two rounds per arm, best-of — the min is robust against
// scheduler interference on shared runners.
func runAggOverhead(stdout io.Writer, cfg fleet.Config, vehicles int, horizon, seed int64, budgetPct float64) error {
	if horizon <= 0 {
		return fmt.Errorf("agg-overhead needs -horizon-bits > 0")
	}
	cfg.Workers = 1
	h := fleet.New(cfg).Health()
	fmt.Fprintf(stdout, "==== fleet aggregation overhead guard ====\n")
	fmt.Fprintf(stdout, "%d vehicles x %d bits, slice=%d, commit threshold=%d events / interval=%d bits\n",
		vehicles, horizon, h.SliceBits, h.CommitThreshold, h.CommitIntervalBits)

	standalone := func() (float64, error) {
		plans := controller.NewPlanSource() // fresh per round, as each fleet arm's
		vs := make([]*experiment.FleetVehicle, vehicles)
		for i := range vs {
			spec := experiment.FleetSpecAt(seed, i, horizon, false)
			spec.Plans = plans
			v, err := experiment.NewFleetVehicle(spec)
			if err != nil {
				return 0, err
			}
			vs[i] = v
		}
		start := time.Now()
		for done := false; !done; {
			done = true
			for _, v := range vs {
				if rem := horizon - v.Now(); rem > 0 {
					slice := h.SliceBits
					if rem < slice {
						slice = rem
					}
					v.Advance(slice)
					done = false
				}
			}
		}
		for _, v := range vs {
			v.Finalize()
		}
		return time.Since(start).Seconds(), nil
	}
	fleetArm := func() (float64, error) {
		f := fleet.New(cfg)
		for i := 0; i < vehicles; i++ {
			if err := buildAndAdd(f, seed, i, horizon); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		f.Start()
		f.Wait()
		wall := time.Since(start).Seconds()
		f.Stop()
		return wall, nil
	}

	best := func(measure func() (float64, error)) (float64, error) {
		min := 0.0
		for round := 0; round < 2; round++ {
			w, err := measure()
			if err != nil {
				return 0, err
			}
			if round == 0 || w < min {
				min = w
			}
		}
		return min, nil
	}
	soloWall, err := best(standalone)
	if err != nil {
		return err
	}
	fleetWall, err := best(fleetArm)
	if err != nil {
		return err
	}
	overhead := (fleetWall - soloWall) / soloWall * 100
	fmt.Fprintf(stdout, "standalone %.3fs, fleet %.3fs -> overhead %.2f%% (budget %.1f%%)\n",
		soloWall, fleetWall, overhead, budgetPct)
	if overhead > budgetPct {
		return fmt.Errorf("fleet aggregation overhead %.2f%% exceeds %.1f%% budget", overhead, budgetPct)
	}
	fmt.Fprintln(stdout, "ok: within budget")
	return nil
}
