// Command michican-fleet runs many independent vehicle simulations behind
// one control plane: shared-nothing workers, one per GOMAXPROCS, each
// advancing a shard of full restbus + defense + attacker vehicles, with
// per-vehicle telemetry folded into a fleet-wide aggregate through
// thresholded net commits and served over HTTP (/fleet/*).
//
//	michican-fleet -vehicles 64 -http 127.0.0.1:6180      # run a fleet
//	michican-fleet -bench -bench-json BENCH_PR7.json      # churn benchmark
//	michican-fleet -agg-overhead -agg-budget 5            # CI overhead guard
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"michican/internal/controller"
	"michican/internal/experiment"
	"michican/internal/fleet"
	"michican/internal/forensics"
	"michican/internal/obs"
	"michican/internal/stats"
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
	var (
		vehicles    = flag.Int("vehicles", 16, "initial fleet size")
		total       = flag.Int("total", 0, "total vehicles over the run incl. churn joiners (0 = 2x -vehicles with -churn, else -vehicles)")
		workers     = flag.Int("workers", 0, "shared-nothing worker count (0 = GOMAXPROCS)")
		seed        = flag.Int64("seed", 1, "fleet seed; per-vehicle seeds derive via experiment.DeriveSeed")
		horizon     = flag.Int64("horizon-bits", 2_000_000, "simulated bits per vehicle before it retires (0 = run until removed)")
		sliceBits   = flag.Int64("slice-bits", 65536, "scheduling quantum per vehicle per worker turn")
		commitTh    = flag.Int64("commit-threshold", 4096, "net-commit trigger in pending telemetry events")
		commitIval  = flag.Int64("commit-interval-bits", 1<<20, "max simulated bits between commits of a vehicle")
		httpAddr    = flag.String("http", "", "serve the fleet observability surface (/fleet/*) on this address")
		linger      = flag.Duration("linger", 0, "keep the HTTP server up this long after the fleet drains")
		bench       = flag.Bool("bench", false, "run the churn benchmark (query load + scaling sweep) and exit")
		benchJSON   = flag.String("bench-json", "", "write the churn benchmark report to this file (implies -bench)")
		churn       = flag.Bool("churn", true, "benchmark: join replacement vehicles as others retire and remove some mid-run")
		queryW      = flag.Int("query-workers", 2, "benchmark: concurrent HTTP query clients hammering /fleet/metrics and /fleet/incidents")
		scalingVeh  = flag.Int("scaling-vehicles", 8, "benchmark: vehicles per scaling-sweep run")
		noScaling   = flag.Bool("no-scaling", false, "benchmark: skip the worker scaling sweep")
		aggOverhead = flag.Bool("agg-overhead", false, "measure fleet aggregation overhead vs the same vehicles run standalone and exit nonzero over -agg-budget")
		aggBudget   = flag.Float64("agg-budget", 5.0, "aggregation overhead budget in percent for -agg-overhead")
		storeDir    = flag.String("store", "", "persist every vehicle into a durable store rooted at this directory (one subdirectory per vehicle, DESIGN.md §8)")
		resume      = flag.Bool("resume", false, "resume the roster recorded in -store from each vehicle's last checkpoint instead of minting fresh vehicles")
		storeDigest = flag.Bool("store-digest", false, "print per-vehicle digests of the -store directory's segment files (CI byte-comparison) and exit")
		cpInterval  = flag.Int64("checkpoint-interval", 1<<20, "bits of sim progress between automatic checkpoints under -store")
		watchOn     = flag.Bool("watch", false, "attach a live SLO/alerting engine to every vehicle (serves /fleet/alerts, persists per-vehicle alert logs under -store)")
		top         = flag.Bool("top", false, "render a live ANSI dashboard (SLO scoreboard, active alerts, vehicle progress) on stdout; implies -watch")
	)
	flag.Parse()
	if *top {
		*watchOn = true
	}

	cfg := fleet.Config{
		Workers:            *workers,
		SliceBits:          *sliceBits,
		CommitThreshold:    *commitTh,
		CommitIntervalBits: *commitIval,
	}
	var err error
	switch {
	case *storeDigest:
		err = runStoreDigest(*storeDir)
	case *aggOverhead:
		err = runAggOverhead(cfg, *vehicles, *horizon, *seed, *aggBudget)
	case *bench || *benchJSON != "":
		err = runBench(cfg, benchParams{
			vehicles: *vehicles, total: *total, seed: *seed, horizon: *horizon,
			churn: *churn, queryWorkers: *queryW,
			scalingVehicles: *scalingVeh, scaling: !*noScaling,
			jsonPath: *benchJSON,
		})
	default:
		err = runFleet(cfg, *vehicles, *horizon, *seed, *httpAddr, *linger,
			durableParams{dir: *storeDir, resume: *resume, checkpointBits: *cpInterval},
			*watchOn, *top)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "michican-fleet:", err)
		os.Exit(1)
	}
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
// the fleet's plan cache.
func planCacheMetrics(f *fleet.Fleet) obs.FleetOption {
	return obs.WithFleetMetrics(func(w io.Writer) {
		st := f.Plans().Stats()
		fmt.Fprintf(w, "michican_fleet_plan_cache_hits_total %d\n", st.Hits)
		fmt.Fprintf(w, "michican_fleet_plan_cache_misses_total %d\n", st.Misses)
		fmt.Fprintf(w, "michican_fleet_plan_cache_plans %d\n", st.Plans)
		fmt.Fprintf(w, "michican_fleet_plan_cache_resident_bytes %d\n", st.ResidentBytes)
	})
}

// printPlanCache prints the one-line summary of a plan cache.
func printPlanCache(st controller.PlanSourceStats, hitRate float64) {
	fmt.Printf("plan cache: %d plans resident (%d bytes), %d hits / %d misses (%.1f%% hit rate)\n",
		st.Plans, st.ResidentBytes, st.Hits, st.Misses, 100*hitRate)
}

// durableParams bundles the daemon's persistence knobs.
type durableParams struct {
	dir            string
	resume         bool
	checkpointBits int64
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
func runFleet(cfg fleet.Config, vehicles int, horizon, seed int64, httpAddr string, linger time.Duration, dp durableParams, watchOn, top bool) error {
	var collector *watch.FleetCollector
	if watchOn {
		collector = watch.NewFleetCollector(nil)
	}
	var finErr atomic.Value
	if dp.dir != "" {
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
	opts := store.SinkOptions{CheckpointIntervalBits: dp.checkpointBits}
	switch {
	case dp.dir != "" && dp.resume:
		// The stored spec carries each vehicle's Watch bit, so a resumed
		// roster re-attaches engines without re-stating -watch.
		resumed, completed, err := resumeRoster(f, dp.dir, opts, collector)
		if err != nil {
			return err
		}
		fmt.Printf("resumed roster from %s: %d vehicles continuing, %d already complete\n",
			dp.dir, resumed, completed)
		if resumed == 0 {
			return nil
		}
		vehicles = resumed
	default:
		for i := 0; i < vehicles; i++ {
			spec := experiment.FleetSpecAt(seed, i, horizon, false)
			spec.Watch = watchOn
			var (
				v interface {
					fleet.Vehicle
					Watch() *watch.Engine
				}
				err error
			)
			if dp.dir != "" {
				v, err = experiment.StartDurableVehicle(vehicleDir(dp.dir, i), spec, 0, "", opts)
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
	if httpAddr != "" {
		fleetOpts := []obs.FleetOption{planCacheMetrics(f), obs.WithFleetHealth(mon.Check)}
		if collector != nil {
			fleetOpts = append(fleetOpts, obs.WithFleetAlerts(func() watch.FleetAlertView {
				return collector.Snapshot(time.Now())
			}))
		}
		var err error
		server, err = obs.ServeFleet(httpAddr, f, fleetOpts...)
		if err != nil {
			return err
		}
		defer server.Close()
		fmt.Printf("fleet control plane listening on %s\n", server.URL())
	}
	h := f.Health()
	fmt.Printf("fleet: %d vehicles, %d workers, slice=%d bits, commit threshold=%d events / interval=%d bits\n",
		vehicles, h.Workers, h.SliceBits, h.CommitThreshold, h.CommitIntervalBits)
	start := time.Now()
	var stopTop chan struct{}
	var topDone sync.WaitGroup
	if top {
		stopTop = make(chan struct{})
		topDone.Add(1)
		go func() {
			defer topDone.Done()
			runDashboard(f, collector, mon, start, stopTop)
		}()
	}
	f.Start()
	if horizon > 0 {
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
	printSummary(f, wall)
	printPlanCache(f.Plans().Stats(), f.Plans().HitRate())
	if server != nil && linger > 0 {
		fmt.Printf("lingering %v for inspection...\n", linger)
		time.Sleep(linger)
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
func runDashboard(f *fleet.Fleet, collector *watch.FleetCollector, mon *watch.Monitor, start time.Time, stop <-chan struct{}) {
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
		os.Stdout.WriteString(watch.RenderDashboard(watch.DashboardData{
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
func runStoreDigest(root string) error {
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
		fmt.Printf("%s  %x  segments=%d bytes=%d\n", d, h.Sum(nil), len(segs), bytes)
	}
	return nil
}

// printSummary renders the end-of-run fleet accounting.
func printSummary(f *fleet.Fleet, wall time.Duration) {
	h := f.Health()
	mv := f.Aggregate().MetricsView()
	iv := f.Aggregate().IncidentsView()
	fmt.Printf("drained: %d vehicles (%d removed early) in %v\n", h.Completed, h.Removed, wall.Round(time.Millisecond))
	fmt.Printf("aggregate: %d sim bits (%.1f Mbit/s of bus time), %d incidents (%d eradicated, %d frames leaked)\n",
		mv.SimBits, float64(mv.SimBits)/wall.Seconds()/1e6,
		iv.Totals.Incidents, iv.Totals.Eradicated, iv.Totals.FramesLeaked)
	ratio := float64(mv.LogicalUpdates)
	if mv.CommitCalls > 0 {
		ratio /= float64(mv.CommitCalls)
	}
	fmt.Printf("net-commit economy: %d logical updates folded into %d commit calls (%.0f updates/commit)\n",
		mv.LogicalUpdates, mv.CommitCalls, ratio)
}

// sumFamily sums every series of one counter family in a metrics view.
func sumFamily(mv fleet.MetricsView, family string) int64 {
	var total int64
	for k, v := range mv.Counters {
		if k == family || (len(k) > len(family) && k[:len(family)] == family && k[len(family)] == '{') {
			total += v
		}
	}
	return total
}

type benchParams struct {
	vehicles, total int
	seed, horizon   int64
	churn           bool
	queryWorkers    int
	scalingVehicles int
	scaling         bool
	jsonPath        string
}

type queryResult struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
}

type churnResult struct {
	VehiclesInitial           int                  `json:"vehicles_initial"`
	VehiclesTotal             int                  `json:"vehicles_total"`
	VehiclesCompleted         int64                `json:"vehicles_completed"`
	VehiclesRemovedEarly      int64                `json:"vehicles_removed_early"`
	WallSeconds               float64              `json:"wall_seconds"`
	VehiclesPerSecond         float64              `json:"vehicles_per_second"`
	SimBitsTotal              int64                `json:"sim_bits_total"`
	AggregateSimBitsPerSecond float64              `json:"aggregate_sim_bits_per_second"`
	LogicalUpdates            int64                `json:"logical_updates"`
	CommitCalls               int64                `json:"commit_calls"`
	UpdatesPerCommit          float64              `json:"updates_per_commit"`
	CommittedDelta            int64                `json:"committed_delta"`
	SpliceBitsTotal           int64                `json:"splice_bits_total"`
	Incidents                 fleet.IncidentTotals `json:"incidents"`
	Query                     queryResult          `json:"query"`
	// PlanCache carries the counters of the fleet's plan cache.
	PlanCache        controller.PlanSourceStats `json:"plan_cache"`
	PlanCacheHitRate float64                    `json:"plan_cache_hit_rate"`
}

type scalingRow struct {
	Workers                int     `json:"workers"`
	Vehicles               int     `json:"vehicles"`
	SimBitsTotal           int64   `json:"sim_bits_total"`
	WallSeconds            float64 `json:"wall_seconds"`
	AggregateBitsPerSecond float64 `json:"aggregate_bits_per_second"`
	SpeedupVs1             float64 `json:"speedup_vs_1"`
}

type benchReport struct {
	GeneratedAt        string       `json:"generated_at"`
	GoVersion          string       `json:"go_version"`
	GOMAXPROCS         int          `json:"gomaxprocs"`
	NumCPU             int          `json:"num_cpu"`
	Seed               int64        `json:"seed"`
	Workers            int          `json:"workers"`
	HorizonBits        int64        `json:"horizon_bits"`
	SliceBits          int64        `json:"slice_bits"`
	CommitThreshold    int64        `json:"commit_threshold"`
	CommitIntervalBits int64        `json:"commit_interval_bits"`
	Churn              bool         `json:"churn"`
	Bench              churnResult  `json:"bench"`
	Scaling            []scalingRow `json:"scaling,omitempty"`
}

// runBench is the churn benchmark: a fleet with vehicles joining and
// leaving mid-run and a skewed attack distribution, under sustained HTTP
// query load, followed by a worker scaling sweep on the same grid.
func runBench(cfg fleet.Config, p benchParams) error {
	if p.total <= 0 {
		p.total = p.vehicles
		if p.churn {
			p.total = 2 * p.vehicles
		}
	}
	fmt.Printf("==== fleet churn benchmark ====\n")
	fmt.Printf("gomaxprocs=%d numcpu=%d\n", runtime.GOMAXPROCS(0), runtime.NumCPU())

	res, err := runChurn(cfg, p)
	if err != nil {
		return err
	}
	fmt.Printf("completed %d vehicles (%d removed early) in %.2fs: %.1f vehicles/s, %.2f Mbit/s aggregate\n",
		res.VehiclesCompleted, res.VehiclesRemovedEarly, res.WallSeconds,
		res.VehiclesPerSecond, res.AggregateSimBitsPerSecond/1e6)
	fmt.Printf("net-commit: %d logical updates / %d commits = %.0f updates/commit\n",
		res.LogicalUpdates, res.CommitCalls, res.UpdatesPerCommit)
	fmt.Printf("query load: %d requests, p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
		res.Query.Requests, res.Query.P50Ms, res.Query.P95Ms, res.Query.P99Ms, res.Query.MaxMs)
	printPlanCache(res.PlanCache, res.PlanCacheHitRate)

	eff := cfg.Defaults()
	rep := benchReport{
		GeneratedAt:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:          runtime.Version(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		NumCPU:             runtime.NumCPU(),
		Seed:               p.seed,
		Workers:            eff.Workers,
		HorizonBits:        p.horizon,
		SliceBits:          eff.SliceBits,
		CommitThreshold:    eff.CommitThreshold,
		CommitIntervalBits: eff.CommitIntervalBits,
		Churn:              p.churn,
		Bench:              *res,
	}
	if p.scaling {
		workersList := []int{1, 2, 4, 8}
		if n := runtime.NumCPU(); n > 8 {
			workersList = append(workersList, n)
		}
		fmt.Printf("\n==== worker scaling sweep (%d vehicles per run) ====\n", p.scalingVehicles)
		for _, w := range workersList {
			row, err := runScalingCell(cfg, p, w)
			if err != nil {
				return err
			}
			if len(rep.Scaling) > 0 && rep.Scaling[0].AggregateBitsPerSecond > 0 {
				row.SpeedupVs1 = row.AggregateBitsPerSecond / rep.Scaling[0].AggregateBitsPerSecond
			} else {
				row.SpeedupVs1 = 1
			}
			fmt.Printf("workers=%2d  %8.2f Mbit/s aggregate  speedup=%.2fx\n",
				row.Workers, row.AggregateBitsPerSecond/1e6, row.SpeedupVs1)
			rep.Scaling = append(rep.Scaling, row)
		}
	}
	if p.jsonPath != "" {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		out = append(out, '\n')
		if err := os.WriteFile(p.jsonPath, out, 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", p.jsonPath)
	}
	return nil
}

// runChurn runs the churny arm: replacements join as vehicles retire, a few
// active vehicles are removed mid-run, and query clients hammer the HTTP
// surface throughout.
func runChurn(cfg fleet.Config, p benchParams) (*churnResult, error) {
	var (
		nextIdx  atomic.Int64
		joinErr  atomic.Value
		f        *fleet.Fleet
		removeAt = map[int64]bool{}
	)
	nextIdx.Store(int64(p.vehicles))
	if p.churn {
		// Remove one active vehicle at every 25% completion mark of the
		// initial population — each removal itself triggers a replacement
		// join, so removals churn membership without shrinking the budget.
		for q := int64(1); q <= 3; q++ {
			removeAt[int64(p.vehicles)*q/4] = true
		}
	}
	var retired atomic.Int64
	cfg.OnRetire = func(r fleet.VehicleResult) {
		n := retired.Add(1)
		if p.churn && removeAt[n] {
			// Remove the live vehicle with the lowest id (deterministic pick).
			for _, vi := range f.Vehicles() {
				if !vi.Done {
					f.Remove(vi.ID)
					break
				}
			}
		}
		if i := nextIdx.Add(1) - 1; int(i) < p.total {
			if err := buildAndAdd(f, p.seed, int(i), p.horizon); err != nil {
				joinErr.Store(err)
			}
		}
	}
	f = fleet.New(cfg)
	for i := 0; i < p.vehicles; i++ {
		if err := buildAndAdd(f, p.seed, i, p.horizon); err != nil {
			return nil, err
		}
	}
	server, err := obs.ServeFleet("127.0.0.1:0", f, planCacheMetrics(f))
	if err != nil {
		return nil, err
	}
	defer server.Close()

	// Client-side query load: alternate /fleet/metrics and /fleet/incidents,
	// recording end-to-end latency per request.
	var (
		qmu       sync.Mutex
		latencies []float64
		requests  int64
		qerrors   int64
		stopQ     = make(chan struct{})
		qwg       sync.WaitGroup
	)
	urls := []string{server.URL() + "/fleet/metrics", server.URL() + "/fleet/incidents"}
	for w := 0; w < p.queryWorkers; w++ {
		qwg.Add(1)
		go func(w int) {
			defer qwg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := w; ; i++ {
				select {
				case <-stopQ:
					return
				default:
				}
				t0 := time.Now()
				resp, err := client.Get(urls[i%len(urls)])
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				d := time.Since(t0)
				qmu.Lock()
				requests++
				if err != nil {
					qerrors++
				} else {
					latencies = append(latencies, d.Seconds())
				}
				qmu.Unlock()
			}
		}(w)
	}

	start := time.Now()
	f.Start()
	for {
		if f.Health().Completed >= int64(p.total) {
			break
		}
		if e := joinErr.Load(); e != nil {
			f.Stop()
			return nil, e.(error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	wall := time.Since(start).Seconds()
	close(stopQ)
	qwg.Wait()
	f.Stop()

	h := f.Health()
	mv := f.Aggregate().MetricsView()
	iv := f.Aggregate().IncidentsView()
	res := &churnResult{
		VehiclesInitial:           p.vehicles,
		VehiclesTotal:             p.total,
		VehiclesCompleted:         h.Completed,
		VehiclesRemovedEarly:      h.Removed,
		WallSeconds:               wall,
		VehiclesPerSecond:         float64(h.Completed) / wall,
		SimBitsTotal:              mv.SimBits,
		AggregateSimBitsPerSecond: float64(mv.SimBits) / wall,
		LogicalUpdates:            mv.LogicalUpdates,
		CommitCalls:               mv.CommitCalls,
		CommittedDelta:            mv.CommittedDelta,
		SpliceBitsTotal:           sumFamily(mv, "michican_ff_splice_bits_total"),
		Incidents:                 iv.Totals,
		PlanCache:                 f.Plans().Stats(),
		PlanCacheHitRate:          f.Plans().HitRate(),
	}
	if res.CommitCalls > 0 {
		res.UpdatesPerCommit = float64(res.LogicalUpdates) / float64(res.CommitCalls)
	}
	qmu.Lock()
	res.Query.Requests = requests
	res.Query.Errors = qerrors
	if len(latencies) > 0 {
		p50, _ := stats.Percentile(latencies, 50)
		p95, _ := stats.Percentile(latencies, 95)
		p99, _ := stats.Percentile(latencies, 99)
		res.Query.P50Ms = p50 * 1e3
		res.Query.P95Ms = p95 * 1e3
		res.Query.P99Ms = p99 * 1e3
		mx := latencies[0]
		for _, l := range latencies {
			if l > mx {
				mx = l
			}
		}
		res.Query.MaxMs = mx * 1e3
	}
	qmu.Unlock()
	return res, nil
}

// runScalingCell runs the same fixed vehicle set (no churn, no query load)
// at one worker count and reports aggregate simulation throughput.
func runScalingCell(cfg fleet.Config, p benchParams, workers int) (scalingRow, error) {
	cfg.Workers = workers
	cfg.OnRetire = nil
	f := fleet.New(cfg) // a fresh plan cache per cell, so cells stay independent
	for i := 0; i < p.scalingVehicles; i++ {
		if err := buildAndAdd(f, p.seed, i, p.horizon); err != nil {
			return scalingRow{}, err
		}
	}
	start := time.Now()
	f.Start()
	f.Wait()
	wall := time.Since(start).Seconds()
	f.Stop()
	if wall <= 0 {
		wall = 1e-9
	}
	sim := f.Aggregate().MetricsView().SimBits
	return scalingRow{
		Workers:                workers,
		Vehicles:               p.scalingVehicles,
		SimBitsTotal:           sim,
		WallSeconds:            wall,
		AggregateBitsPerSecond: float64(sim) / wall,
	}, nil
}

// runAggOverhead is the CI guard: the same vehicle set is run once through
// the fleet (workers=1, default commit policy) and once standalone (a plain
// serial loop over the identical slice schedule, no fleet layer, no
// commits); the difference is the whole cost of sharding + thresholded
// aggregation. Two rounds per arm, best-of — the min is robust against
// scheduler interference on shared runners.
func runAggOverhead(cfg fleet.Config, vehicles int, horizon, seed int64, budgetPct float64) error {
	if horizon <= 0 {
		return fmt.Errorf("agg-overhead needs -horizon-bits > 0")
	}
	cfg.Workers = 1
	cfg.OnRetire = nil
	eff := cfg.Defaults()
	fmt.Printf("==== fleet aggregation overhead guard ====\n")
	fmt.Printf("%d vehicles x %d bits, slice=%d, commit threshold=%d events / interval=%d bits\n",
		vehicles, horizon, eff.SliceBits, eff.CommitThreshold, eff.CommitIntervalBits)

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
					slice := eff.SliceBits
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
	fmt.Printf("standalone %.3fs, fleet %.3fs -> overhead %.2f%% (budget %.1f%%)\n",
		soloWall, fleetWall, overhead, budgetPct)
	if overhead > budgetPct {
		return fmt.Errorf("fleet aggregation overhead %.2f%% exceeds %.1f%% budget", overhead, budgetPct)
	}
	fmt.Println("ok: within budget")
	return nil
}
