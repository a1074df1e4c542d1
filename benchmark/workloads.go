package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"michican/internal/bus"
	"michican/internal/controller"
	"michican/internal/experiment"
	"michican/internal/fleet"
	"michican/internal/forensics"
	"michican/internal/mcu"
	"michican/internal/obs"
	"michican/internal/store"
	"michican/internal/telemetry"
	"michican/internal/watch"
)

// workload is one named input set, in phases: prepare runs once per run,
// untimed; stage runs before each set-up, untimed; setup builds the system
// under test into dir, timed; the system's run is the timed work phase.
type workload struct {
	name    string
	why     string
	prepare func(rc *runCtx) error
	stage   func(rc *runCtx, dir string) error
	setup   func(rc *runCtx, dir string) (system, error)
}

// system is a workload's built system under test.
type system interface {
	// run is one repetition's work phase: it calls measureWork around the
	// timed part and fills r with the repetition's outputs and counts.
	run(rc *runCtx, r *repResult) error
	// discard releases a system that was built only to time set-up.
	discard() error
}

var workloads = []workload{
	{
		name:  "paper-repro",
		why:   "What a reader of the paper runs (michican-bench -all). Its time goes to fsm and short attacked runs; ladder, store and fleet changes should not move it.",
		setup: paperSetup,
	},
	{
		name:  "fleet-attacked",
		why:   "The production stack on attack-bearing traffic: forensics, watch, store appends and net commits all work, with obs reads beside the writes.",
		setup: attackedSetup,
	},
	{
		name:    "fleet-resume",
		why:     "The store the other way round: crash recovery, prefix re-hash and time-travel window reads instead of appends.",
		prepare: prepareCrash,
		stage:   restoreCrash,
		setup:   resumeSetup,
	},
	{
		name:  "vehicle-benign",
		why:   "One benign 60%-load vehicle in hyper-ff mode: the ladder carries every bit and forensics and watch see no incidents.",
		setup: benignSetup,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// ---- paper-repro ----

// paperSystem holds the paper's analytic results, which need no simulation:
// Table I's rows, Table III's model and the schedulability analysis.
type paperSystem struct {
	table1    []experiment.Table1Row
	table3    []experiment.Table3Row
	sched     []experiment.SchedRow
	schedTime time.Duration
}

// paperSetup computes the analytic results. michican-bench -all prints them
// among the simulated ones; paper-repro computes them first, so they are its
// set-up before the first simulated bit, and the work phase reports them
// with the rest.
func paperSetup(rc *runCtx, _ string) (system, error) {
	p := &paperSystem{table1: experiment.Table1(), table3: experiment.Table3(experiment.Interruptions{})}
	var err error
	p.schedTime, err = rc.span("experiment.sched", "setup", func() error {
		var err error
		p.sched, err = experiment.Schedulability(bus.Rate500k)
		return err
	})
	return p, err
}

func (*paperSystem) discard() error { return nil }

// run makes the simulated experiment calls of michican-bench -all, at
// Config{Seed} defaults, and fingerprints every result row, the set-up's
// included, in michican-bench's order.
func (p *paperSystem) run(rc *runCtx, r *repResult) error {
	seed, sc := rc.opts.seed, rc.opts.sc
	cfg := experiment.Config{Seed: seed}
	results := map[string]any{"sched": p.sched}
	r.part("experiment.sched_pct", p.schedTime)
	call := func(name string, fn func() (any, error)) error {
		d, err := rc.span("experiment."+name, "run", func() error {
			res, err := fn()
			results[name] = res
			return err
		})
		rc.checks.op(err)
		r.ops = append(r.ops, float64(d.Nanoseconds())/1e6)
		r.part("experiment."+name+"_pct", d)
		return err
	}
	calls := []struct {
		name string
		fn   func() (any, error)
	}{
		{"table1", func() (any, error) {
			rows, err := experiment.DefenseComparison(cfg)
			return []any{p.table1, rows}, err
		}},
		{"table2", func() (any, error) { return experiment.Table2(cfg) }},
		{"table3", func() (any, error) {
			v, err := experiment.ValidateTable3(cfg)
			return []any{p.table3, v}, err
		}},
		{"fig6", func() (any, error) { return experiment.Fig6(cfg) }},
		{"detection", func() (any, error) {
			res, err := experiment.DetectionLatency(sc.FSMs, 64, seed)
			if err == nil && res.DetectionRate != 1 {
				err = fmt.Errorf("detection rate %.4f, the paper verifies 100%%", res.DetectionRate)
			}
			return res, err
		}},
		{"sweep", func() (any, error) {
			return experiment.DetectionSweep([]int{2, 4, 8, 16, 32, 64, 128, 256}, sc.SweepPerN, seed)
		}},
		{"multiattacker", func() (any, error) { return experiment.MultiAttacker(cfg, 5) }},
		{"cpu", func() (any, error) {
			var all []experiment.CPURow
			for _, c := range []struct {
				profile mcu.Profile
				rate    bus.Rate
				light   bool
			}{
				{mcu.ArduinoDue, bus.Rate125k, false},
				{mcu.ArduinoDue, bus.Rate125k, true},
				{mcu.ArduinoDue, bus.Rate250k, false},
				{mcu.NXPS32K144, bus.Rate500k, false},
			} {
				rows, err := experiment.CPUUtilization(cfg, c.profile, c.rate, c.light)
				if err != nil {
					return nil, err
				}
				all = append(all, rows...)
			}
			return all, nil
		}},
		{"busload", func() (any, error) { return experiment.BusLoad(cfg) }},
		{"parksense", func() (any, error) { return experiment.ParkSense(cfg) }},
		{"split", func() (any, error) { return experiment.SplitScenario(cfg) }},
	}
	err := measureWork(r, func() error {
		_, err := rc.span("run", "", func() error {
			for _, c := range calls {
				if err := call(c.name, c.fn); err != nil {
					return err
				}
			}
			return nil
		})
		return err
	})
	if err != nil {
		return err
	}
	ordered := make([]any, 0, len(paperCalls))
	for _, name := range paperCalls {
		ordered = append(ordered, results[name])
	}
	r.id.Paper, err = jsonDigest(ordered)
	return err
}

// ---- fleet roster ----

// rosterPairs is the fleet's attack × load mix in join order. Vehicles join
// in identical pairs, so the fleet's round-robin placement gives both
// workers the same work. The mix is FleetSpecs' 55/20/15/10% none/spoof/
// dos/toggle and 20/50/30% load at 2/30/60%, stratified: every seed runs
// exactly this mix (18/6/4/4 vehicles; 6/16/10 by load) and varies only the
// vehicles' restbus phases. Drawing the mix per seed, as FleetSpecAt does,
// would make run time measure the draw.
var rosterPairs = []struct {
	attack experiment.FleetAttack
	load   float64
}{
	{experiment.FleetAttackSpoof, 0.30}, {experiment.FleetAttackNone, 0.30},
	{experiment.FleetAttackDoS, 0.30}, {experiment.FleetAttackNone, 0.60},
	{experiment.FleetAttackToggle, 0.60}, {experiment.FleetAttackNone, 0.02},
	{experiment.FleetAttackSpoof, 0.60}, {experiment.FleetAttackNone, 0.30},
	{experiment.FleetAttackDoS, 0.30}, {experiment.FleetAttackNone, 0.60},
	{experiment.FleetAttackSpoof, 0.02}, {experiment.FleetAttackNone, 0.30},
	{experiment.FleetAttackToggle, 0.30}, {experiment.FleetAttackNone, 0.02},
	{experiment.FleetAttackNone, 0.30}, {experiment.FleetAttackNone, 0.60},
}

// rosterSpec is vehicle i of the roster: FleetSpecAt's seed-derived spec in
// the default splice-ff mode, with the stratified attack and load, and a
// watch engine attached.
func rosterSpec(seed int64, i int, sc scale, plans *controller.PlanSource) experiment.FleetVehicleSpec {
	spec := experiment.FleetSpecAt(seed, i, sc.HorizonBits, false)
	p := rosterPairs[(i/2)%len(rosterPairs)]
	spec.Attack, spec.Load = p.attack, p.load
	spec.Watch = true
	spec.Plans = plans
	return spec
}

func vehicleDir(root string, i int) string { return filepath.Join(root, fmt.Sprintf("v%05d", i)) }

// durableFleet is a fleet of durable vehicles wired as michican-fleet -store
// -watch wires it: OnFinalize persists each retiring vehicle and closes its
// store.
type durableFleet struct {
	f         *fleet.Fleet
	vehicles  []*experiment.DurableVehicle
	collector *watch.FleetCollector
	finErr    atomic.Value
	finalize  atomic.Int64 // nanoseconds spent in FinalizeDurable
}

func newDurableFleet(rc *runCtx) *durableFleet {
	df := &durableFleet{collector: watch.NewFleetCollector(nil)}
	df.f = fleet.New(fleet.Config{
		Workers:   2,
		SliceBits: sliceBits,
		OnFinalize: func(v fleet.Vehicle, incs []forensics.Incident) {
			dv, ok := v.(*experiment.DurableVehicle)
			if !ok {
				return
			}
			start := time.Now()
			err := dv.FinalizeDurable(incs)
			if err == nil {
				err = dv.Store.Close()
			}
			df.finalize.Add(int64(time.Since(start)))
			rc.tr.add(rc.runID, "store.finalize", "run", start)
			if err != nil {
				df.finErr.Store(fmt.Errorf("finalize vehicle %d: %w", v.ID(), err))
			}
		},
	})
	return df
}

func (df *durableFleet) add(dv *experiment.DurableVehicle) error {
	if err := df.f.Add(dv); err != nil {
		return err
	}
	df.vehicles = append(df.vehicles, dv)
	if w := dv.Watch(); w != nil {
		df.collector.Register(dv.ID(), w)
	}
	return nil
}

// drain runs the fleet until every vehicle has retired.
func (df *durableFleet) drain() error {
	df.f.Start()
	df.f.Wait()
	df.f.Stop()
	if e := df.finErr.Load(); e != nil {
		return e.(error)
	}
	return nil
}

// discard closes the stores of a fleet that never ran.
func (df *durableFleet) discard() error {
	for _, dv := range df.vehicles {
		if err := dv.Sink.Close(dv.Now(), false); err != nil {
			return err
		}
		if err := dv.Store.Close(); err != nil {
			return err
		}
	}
	return nil
}

// collect checks every vehicle's outcome and fills the repetition's identity
// and exact per-layer counts.
func (df *durableFleet) collect(rc *runCtx, r *repResult, plans *controller.PlanSource) {
	mv := df.f.Aggregate().MetricsView()
	iv := df.f.Aggregate().IncidentsView()
	r.simBits = mv.SimBits
	var verdicts int64
	var st store.Stats
	for _, dv := range df.vehicles {
		id, err := vehicleIdentityOf(dv)
		if err == nil && dv.Sink.Err() != nil {
			err = fmt.Errorf("vehicle %d: store sink: %w", dv.ID(), dv.Sink.Err())
		}
		rc.checks.op(err)
		r.id.Vehicles = append(r.id.Vehicles, id)
		r.stores = append(r.stores, dv.Store.Dir())
		if w := dv.Watch(); w != nil {
			verdicts += int64(len(w.Verdicts()))
		}
		s := dv.Store.Stats()
		st.EventsAppended += s.EventsAppended
		st.Fsyncs += s.Fsyncs
		st.SegmentsSealed += s.SegmentsSealed
		st.Checkpoints += s.Checkpoints
		st.DiskBytes += s.DiskBytes
	}
	if iv.Totals.FramesLeaked != 0 {
		rc.checks.op(fmt.Errorf("%d spoofed frames leaked past the defense", iv.Totals.FramesLeaked))
	}
	c := ladderCounts(mv.Counters, mv.SimBits)
	c["telemetry.events_per_mbit"] = perMbit(float64(mv.LogicalUpdates), mv.SimBits)
	c["forensics.incidents"] = float64(iv.Totals.Incidents)
	c["forensics.frames_leaked"] = float64(iv.Totals.FramesLeaked)
	c["watch.verdicts"] = float64(verdicts)
	c["fleet.commit_calls"] = float64(mv.CommitCalls)
	if mv.CommitCalls > 0 {
		c["fleet.updates_per_commit"] = float64(mv.LogicalUpdates) / float64(mv.CommitCalls)
	}
	storeCounts(c, st, mv.SimBits)
	if plans != nil {
		ps := plans.Stats()
		c["controller.plan_hit_rate"] = 100 * plans.HitRate()
		c["controller.plans_resident_mb"] = float64(ps.ResidentBytes) / 1e6
	}
	r.counts = c
	r.part("store.finalize_pct", time.Duration(df.finalize.Load()))
}

// ladderCounts derives the per-layer counts that come from hub counters:
// ladder rung shares, detections, counterattack bits, alert transitions.
func ladderCounts(counters telemetry.CounterSnapshot, simBits int64) map[string]float64 {
	sum := func(family string) int64 {
		var total int64
		for k, v := range counters {
			if strings.HasPrefix(k, family+"{") || k == family {
				total += v
			}
		}
		return total
	}
	c := map[string]float64{}
	ff := int64(0)
	for _, rung := range rungs {
		bits := sum("michican_ff_" + rung + "_bits_total")
		ff += bits
		c["bus."+rung+"_bit_share"] = share(bits, simBits)
	}
	c["bus.exact_bit_share"] = share(simBits-ff, simBits)
	c["core.detections"] = float64(sum("michican_detections_total"))
	c["core.counterattack_bits"] = float64(sum("michican_counterattack_bits_total"))
	c["watch.alert_transitions"] = float64(sum("michican_alert_transitions_total"))
	return c
}

func storeCounts(c map[string]float64, st store.Stats, simBits int64) {
	c["store.events_appended"] = float64(st.EventsAppended)
	c["store.fsyncs"] = float64(st.Fsyncs)
	c["store.segments_sealed"] = float64(st.SegmentsSealed)
	c["store.checkpoints"] = float64(st.Checkpoints)
	if simBits > 0 {
		c["store.bytes_per_bit"] = float64(st.DiskBytes) / float64(simBits)
	}
}

func share(part, whole int64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func perMbit(n float64, simBits int64) float64 {
	if simBits <= 0 {
		return 0
	}
	return n / (float64(simBits) / 1e6)
}

// ---- fleet-attacked ----

// attackedFleet is fleet-attacked's system under test: the durable roster
// behind an obs server wired as michican-fleet -store -watch -http wires it.
type attackedFleet struct {
	df     *durableFleet
	plans  *controller.PlanSource
	server *obs.Server
}

func attackedSetup(rc *runCtx, dir string) (system, error) {
	sc := rc.opts.sc
	af := &attackedFleet{plans: controller.NewPlanSource(), df: newDurableFleet(rc)}
	opts := store.SinkOptions{CheckpointIntervalBits: sc.CheckpointBits}
	for i := 0; i < sc.Vehicles; i++ {
		dv, err := experiment.StartDurableVehicle(vehicleDir(dir, i), rosterSpec(rc.opts.seed, i, sc, af.plans), 0, "", opts)
		if err != nil {
			return nil, err
		}
		if err := af.df.add(dv); err != nil {
			return nil, err
		}
	}
	mon := &watch.Monitor{}
	mon.Attach(watch.NewFleetWatcher(func() []watch.VehicleProgress {
		infos := af.df.f.Vehicles()
		out := make([]watch.VehicleProgress, 0, len(infos))
		for _, vi := range infos {
			out = append(out, watch.VehicleProgress{ID: vi.ID, NowBits: vi.NowBits, Done: vi.Done})
		}
		return out
	}, 30*time.Second).Check)
	var err error
	af.server, err = obs.ServeFleet("127.0.0.1:0", af.df.f,
		obs.WithFleetMetrics(func(w io.Writer) {
			st := af.plans.Stats()
			fmt.Fprintf(w, "michican_fleet_plan_cache_hits_total %d\n", st.Hits)
			fmt.Fprintf(w, "michican_fleet_plan_cache_misses_total %d\n", st.Misses)
		}),
		obs.WithFleetHealth(mon.Check),
		obs.WithFleetAlerts(func() watch.FleetAlertView { return af.df.collector.Snapshot(time.Now()) }))
	return af, err
}

func (af *attackedFleet) discard() error {
	af.server.Close()
	return af.df.discard()
}

// run drains the fleet while one closed-loop client reads /fleet/metrics
// and /fleet/alerts.
func (af *attackedFleet) run(rc *runCtx, r *repResult) error {
	defer af.server.Close()
	client := &obsClient{base: af.server.URL(), think: rc.opts.sc.ThinkTime, checks: rc.checks, rc: rc}
	err := measureWork(r, func() error {
		_, err := rc.span("run", "", func() error {
			stop := client.start()
			err := af.df.drain()
			stop()
			return err
		})
		return err
	})
	if err != nil {
		return err
	}
	r.ops = client.latencies
	af.df.collect(rc, r, af.plans)
	r.counts["obs.requests"] = float64(len(client.latencies) + client.errors)
	r.counts["obs.request_errors"] = float64(client.errors)
	return nil
}

// obsClient is one closed-loop HTTP client on one connection: it alternates
// GET /fleet/metrics and GET /fleet/alerts with a think time between
// requests, checking that each answers 200 with a body that parses.
type obsClient struct {
	base      string
	think     time.Duration
	checks    *checks
	rc        *runCtx
	latencies []float64
	errors    int
}

// start launches the client; the returned stop waits for it to exit.
func (c *obsClient) start() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		hc := &http.Client{Transport: tr, Timeout: 10 * time.Second}
		paths := []string{"/fleet/metrics", "/fleet/alerts"}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			start := time.Now()
			err := c.get(hc, paths[i%len(paths)])
			c.rc.tr.add(c.rc.runID, "obs.get", "run", start)
			if err != nil {
				c.errors++
			} else {
				c.latencies = append(c.latencies, float64(time.Since(start).Nanoseconds())/1e6)
			}
			c.checks.op(err)
			t := time.NewTimer(c.think)
			select {
			case <-done:
				t.Stop()
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

func (c *obsClient) get(hc *http.Client, path string) error {
	resp, err := hc.Get(c.base + path)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if path == "/fleet/alerts" {
		var view watch.FleetAlertView
		if err := json.Unmarshal(body, &view); err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
		return nil
	}
	return parseMetricsText(body)
}

// parseMetricsText checks a Prometheus-style text body: every line is a
// series key and a number, and the fleet's own series is present.
func parseMetricsText(body []byte) error {
	found := false
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return fmt.Errorf("metrics: malformed line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			return fmt.Errorf("metrics: line %q: %w", line, err)
		}
		found = found || line[:i] == "michican_fleet_sim_bits_total"
	}
	if !found {
		return errors.New("metrics: michican_fleet_sim_bits_total missing")
	}
	return nil
}

// ---- fleet-resume ----

// crashDir holds the crash image fleet-resume restores before every set-up.
func crashDir(rc *runCtx) string { return filepath.Join(rc.dir, "crash") }

// prepareCrash advances the roster in fleet-slice quanta on two goroutines
// to CrashBits, just past a checkpoint, then closes every sink and store
// without finalizing: the image a crash leaves behind.
func prepareCrash(rc *runCtx) error {
	sc := rc.opts.sc
	plans := controller.NewPlanSource()
	opts := store.SinkOptions{CheckpointIntervalBits: sc.CheckpointBits}
	dvs := make([]*experiment.DurableVehicle, sc.Vehicles)
	for i := range dvs {
		dv, err := experiment.StartDurableVehicle(vehicleDir(crashDir(rc), i), rosterSpec(rc.opts.seed, i, sc, plans), 0, "", opts)
		if err != nil {
			return err
		}
		dvs[i] = dv
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(dvs); i += 2 {
				for dvs[i].Now() < sc.CrashBits {
					dvs[i].Advance(min(sliceBits, sc.CrashBits-dvs[i].Now()))
				}
			}
		}(w)
	}
	wg.Wait()
	for _, dv := range dvs {
		if err := dv.Sink.Close(dv.Now(), false); err != nil {
			return err
		}
		if err := dv.Store.Close(); err != nil {
			return err
		}
	}
	return nil
}

// restoreCrash copies the crash image into dir.
func restoreCrash(rc *runCtx, dir string) error {
	src := crashDir(rc)
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dir, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// resumedFleet is fleet-resume's system under test: every vehicle of the
// crash image resumed from its last checkpoint.
type resumedFleet struct {
	df  *durableFleet
	dir string
}

func resumeSetup(rc *runCtx, dir string) (system, error) {
	rf := &resumedFleet{df: newDurableFleet(rc), dir: dir}
	opts := store.SinkOptions{CheckpointIntervalBits: rc.opts.sc.CheckpointBits}
	for i := 0; i < rc.opts.sc.Vehicles; i++ {
		start := time.Now()
		dv, err := experiment.ResumeDurableVehicle(vehicleDir(dir, i), opts)
		rc.tr.add(rc.runID, "store.resume_open", "setup", start)
		if err != nil {
			return nil, err
		}
		if err := rf.df.add(dv); err != nil {
			return nil, err
		}
	}
	return rf, nil
}

func (rf *resumedFleet) discard() error { return rf.df.discard() }

// run drains the resumed fleet to the horizon, then reads time-travel
// windows.
func (rf *resumedFleet) run(rc *runCtx, r *repResult) error {
	r.part("store.resume_open_pct", r.setup)
	var readTime time.Duration
	var events int64
	err := measureWork(r, func() error {
		if _, err := rc.span("run", "", rf.df.drain); err != nil {
			return err
		}
		var err error
		readTime, err = rc.span("read", "", func() error {
			n, err := readWindows(rc, r, rf.dir)
			events = n
			return err
		})
		return err
	})
	if err != nil {
		return err
	}
	rf.df.collect(rc, r, nil)
	if readTime > 0 {
		r.counts["store.window_events_per_s"] = float64(events) / readTime.Seconds()
	}
	return nil
}

// readWindows opens each vehicle's store and reads WindowsPerVehicle
// fixed windows spread over the horizon, encoding every event as canonical
// JSONL. Each window read is one operation.
func readWindows(rc *runCtx, r *repResult, root string) (int64, error) {
	sc := rc.opts.sc
	var total int64
	var buf []byte
	for i := 0; i < sc.Vehicles; i++ {
		start := time.Now()
		st, err := store.Open(vehicleDir(root, i))
		rc.tr.add(rc.runID, "store.open", "read", start)
		if err != nil {
			return total, err
		}
		for k := 0; k < sc.WindowsPerVehicle; k++ {
			from := (int64(k)*2+1)*sc.HorizonBits/int64(2*sc.WindowsPerVehicle) - sc.WindowBits/2
			var n int64
			start := time.Now()
			err := st.EventsInWindow(from, from+sc.WindowBits, func(ev telemetry.NamedEvent) error {
				buf = telemetry.AppendEventJSON(buf[:0], ev.Node, telemetry.Event{Time: ev.Time, Kind: ev.Kind, A: ev.A, B: ev.B})
				n++
				return nil
			})
			r.ops = append(r.ops, float64(time.Since(start).Nanoseconds())/1e6)
			rc.tr.add(rc.runID, "store.window", "read", start)
			if err == nil && n == 0 {
				err = fmt.Errorf("vehicle %d: window [%d, %d] is empty", i, from, from+sc.WindowBits)
			}
			rc.checks.op(err)
			total += n
		}
		if err := st.Close(); err != nil {
			return total, err
		}
	}
	return total, nil
}

// ---- vehicle-benign ----

// benignVehicle is vehicle-benign's system under test: one durable benign
// vehicle.
type benignVehicle struct {
	dv *experiment.DurableVehicle
}

func benignSetup(rc *runCtx, dir string) (system, error) {
	dv, err := experiment.StartDurableVehicle(dir, experiment.FleetVehicleSpec{
		Seed:   experiment.DeriveSeed(rc.opts.seed, 0),
		Load:   0.60,
		Mode:   experiment.ModeHyperFF,
		Attack: experiment.FleetAttackNone,
		Watch:  true,
	}, 0, "", store.SinkOptions{CheckpointIntervalBits: vehicleCheckpointBits})
	if err != nil {
		return nil, err
	}
	return &benignVehicle{dv: dv}, nil
}

func (b *benignVehicle) discard() error {
	if err := b.dv.Sink.Close(0, false); err != nil {
		return err
	}
	return b.dv.Store.Close()
}

// run advances the vehicle over two timed halves in fleet slices, then
// finalizes it.
func (b *benignVehicle) run(rc *runCtx, r *repResult) error {
	sc, dv := rc.opts.sc, b.dv
	half := func(name string) (time.Duration, error) {
		return rc.span(name, "run", func() error {
			end := dv.Now() + sc.BenignHalfBits
			for dv.Now() < end {
				start := time.Now()
				dv.Advance(min(sliceBits, end-dv.Now()))
				r.ops = append(r.ops, float64(time.Since(start).Nanoseconds())/1e6)
			}
			return nil
		})
	}
	var incs []forensics.Incident
	err := measureWork(r, func() error {
		_, err := rc.span("run", "", func() error {
			if _, err := half("first_half"); err != nil {
				return err
			}
			var err error
			r.steady, err = half("second_half")
			return err
		})
		if err != nil {
			return err
		}
		d, err := rc.span("finalize", "", func() error {
			incs = dv.Finalize()
			if err := dv.FinalizeDurable(incs); err != nil {
				return err
			}
			return dv.Store.Close()
		})
		r.part("store.finalize_pct", d)
		return err
	})
	if err != nil {
		return err
	}
	r.simBits = dv.Now()
	r.steadyBits = sc.BenignHalfBits
	id, err := vehicleIdentityOf(dv)
	if err == nil && len(incs) != 0 {
		err = fmt.Errorf("benign vehicle raised %d incidents", len(incs))
	}
	rc.checks.op(err)
	r.id.Vehicles = []vehicleIdentity{id}
	r.stores = []string{dv.Store.Dir()}

	c := ladderCounts(dv.Hub().Registry().SnapshotCounters(), r.simBits)
	c["telemetry.events_per_mbit"] = perMbit(float64(dv.Hub().EmitCount()), r.simBits)
	c["forensics.incidents"] = float64(len(incs))
	var leaked int64
	for _, inc := range incs {
		leaked += int64(inc.FramesLeaked)
	}
	c["forensics.frames_leaked"] = float64(leaked)
	if w := dv.Watch(); w != nil {
		c["watch.verdicts"] = float64(len(w.Verdicts()))
	}
	storeCounts(c, dv.Store.Stats(), r.simBits)
	r.counts = c
	return nil
}
