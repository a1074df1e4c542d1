package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// scale sizes the workloads. The benchmark runs at defaultScale; the smoke
// test shrinks it so every workload finishes in well under a second.
type scale struct {
	FSMs              int           // paper-repro: random FSMs of the Sec. V-B detection study
	SweepPerN         int           // paper-repro: draws per IVN size of the detection sweep
	Vehicles          int           // fleet roster size
	HorizonBits       int64         // simulated bits per fleet vehicle
	CheckpointBits    int64         // fleet store checkpoint interval
	CrashBits         int64         // fleet-resume: where the crash image stops (a multiple of SliceBits)
	WindowsPerVehicle int           // fleet-resume: time-travel reads per vehicle
	WindowBits        int64         // fleet-resume: width of one read window
	BenignHalfBits    int64         // vehicle-benign: simulated bits per timed half
	ThinkTime         time.Duration // fleet-attacked: obs client think time
}

const (
	// sliceBits is the fleet's default scheduling quantum; every vehicle the
	// benchmark advances by hand advances in these quanta too.
	sliceBits = 65536
	// vehicleCheckpointBits is the CLI default checkpoint interval, used by
	// vehicle-benign.
	vehicleCheckpointBits = 1 << 20
)

var defaultScale = scale{
	FSMs:              160_000,
	SweepPerN:         500,
	Vehicles:          32,
	HorizonBits:       1 << 20,
	CheckpointBits:    1 << 18,
	CrashBits:         1<<19 + sliceBits,
	WindowsPerVehicle: 1,
	WindowBits:        100_000,
	BenignHalfBits:    75_000_000,
	ThinkTime:         50 * time.Millisecond,
}

// key identifies a scale in golden files, so identities recorded at one
// scale are never compared with runs at another.
func (s scale) key() string {
	return fmt.Sprintf("fsms=%d sweep=%d vehicles=%d horizon=%d checkpoint=%d crash=%d benign=%d",
		s.FSMs, s.SweepPerN, s.Vehicles, s.HorizonBits, s.CheckpointBits, s.CrashBits, s.BenignHalfBits)
}

// runOpts is one run: a workload measured for a while under one seed.
type runOpts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	traceDir string
	sc       scale
	noGolden bool // -write-golden: the files are being replaced
}

// repResult is what one repetition of a workload measured.
type repResult struct {
	setup      time.Duration // the repetition's own set-up, wall time
	work       time.Duration // the timed work phase
	steady     time.Duration // vehicle-benign: the second half alone
	cpu        time.Duration // process CPU time over the work phase
	allocs     uint64        // heap allocations over the work phase
	gcCycles   uint32
	simBits    int64
	steadyBits int64
	heapSum    float64 // live-heap samples over the work phase, in bytes
	heapN      int
	ops        []float64 // per-operation latencies in ms
	// timed parts of the repetition, as shares of setup+work (the *_pct
	// per-layer metrics)
	parts map[string]time.Duration
	// counts are the exact per-layer counts (identical across repetitions).
	counts map[string]float64
	id     identity
	stores []string // store directory of each vehicle in id.Vehicles
}

func (r *repResult) part(name string, d time.Duration) {
	if r.parts == nil {
		r.parts = map[string]time.Duration{}
	}
	r.parts[name] += d
}

// runCtx carries a run's state into the workload code.
type runCtx struct {
	opts   runOpts
	dir    string // scratch directory for stores, removed when the run ends
	runID  string
	tr     *tracer // non-nil during a traced repetition
	allTr  *tracer
	ctx    context.Context
	env    envInfo
	checks *checks
}

// span runs fn as a named phase: it carries pprof labels and, in a traced
// repetition, records a span.
func (rc *runCtx) span(name, parent string, fn func() error) (time.Duration, error) {
	var err error
	start := time.Now()
	pprof.Do(rc.ctx, pprof.Labels("phase", name), func(context.Context) { err = fn() })
	d := time.Since(start)
	rc.tr.add(rc.runID, name, parent, start)
	return d, err
}

// A run times set-up on systems it builds before any work phase: at least
// minSetupSamples of them, and more while under a fifth of the run's time
// has passed. The host's speed drifts over seconds, so a median over a
// short burst of set-ups reads wherever the drift happened to be; spreading
// the samples over seconds averages it.
const minSetupSamples = 5

// stage runs the workload's untimed staging into dir, then writes back
// dirty pages and collects the heap, so that neither earlier writeback nor
// earlier garbage lands in the timing that follows. Store creation fsyncs,
// and each fsync commits whatever metadata earlier writes left pending.
func (rc *runCtx) stage(w workload, dir string) error {
	if w.stage != nil {
		if err := w.stage(rc, dir); err != nil {
			return err
		}
	}
	syscall.Sync()
	runtime.GC()
	return nil
}

// setup builds the workload's system in dir and returns it with the
// set-up's wall time and the CPU time its thread consumed. Set-up runs
// locked to one thread, so collector work on other threads is not counted.
func (rc *runCtx) setup(w workload, dir string) (sys system, wall, cpu time.Duration, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	before := threadCPUTime()
	wall, err = rc.span("setup", "", func() error {
		var err error
		sys, err = w.setup(rc, dir)
		return err
	})
	return sys, wall, threadCPUTime() - before, err
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID, which the syscall
// package does not name. Unlike getrusage, whose figures advance in timer
// ticks, this clock is exact to the nanosecond.
const clockThreadCPUTime = 3

func threadCPUTime() time.Duration {
	var ts syscall.Timespec
	// Cannot fail for the calling thread's clock.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procSample is a process-wide resource reading at a phase boundary.
type procSample struct {
	cpu     time.Duration
	mallocs uint64
	gc      uint32
}

func takeSample() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:     cpuTime(),
		mallocs: ms.Mallocs,
		gc:      ms.NumGC,
	}
}

// measureWork runs the work phase and records its wall time, CPU time,
// allocations, GC cycles and live-heap samples into r.
func measureWork(r *repResult, fn func() error) error {
	heap := startHeapSampler()
	before := takeSample()
	start := time.Now()
	err := fn()
	r.work += time.Since(start)
	after := takeSample()
	sum, n := heap.stop()
	r.cpu += after.cpu - before.cpu
	r.allocs += after.mallocs - before.mallocs
	r.gcCycles += after.gc - before.gc
	r.heapSum += sum
	r.heapN += n
	return err
}

// heapSampler reads the live heap (as measured by the latest garbage
// collection) every 2 ms, for the time-averaged mean_heap_mb. Peak figures
// (RSS, or the largest live heap seen) depend on whether a collection
// happens to land inside a short allocation burst; the time average is set
// by what the program holds and repeats from run to run.
type heapSampler struct {
	quit  chan struct{}
	done  chan struct{}
	sum   float64
	count int
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				h.sum += float64(sample[0].Value.Uint64())
				h.count++
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the sum of the samples, in bytes, and
// their number.
func (h *heapSampler) stop() (sum float64, count int) {
	close(h.quit)
	<-h.done
	return h.sum, h.count
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runReport is one run's outcome: the contract's result line plus detail
// that the set mode aggregates.
type runReport struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Reps      int                `json:"reps"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Warnings  []string           `json:"warnings,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Identity  identity           `json:"identity"`
	// TracedWallS is the median work phase of a traced run's traced
	// repetitions, for the set's tracing-overhead figure.
	TracedWallS float64    `json:"traced_wall_s,omitempty"`
	Ops         opStats    `json:"ops"`
	Env         envInfo    `json:"env"`
	Spans       []spanTime `json:"-"`
}

// runWorkload measures one workload: an untimed prepare step, then
// repetitions until the time budget is spent (at least one; two when
// traced). Traced runs alternate untraced and traced repetitions so the
// tracing overhead is measured inside the run.
func runWorkload(opts runOpts) (*runReport, error) {
	w, ok := workloadByName(opts.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", opts.workload, workloadNames())
	}
	env := readEnv(os.TempDir())
	checkEnv(&env)
	dir, err := os.MkdirTemp("", "michican-benchmark-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rc := &runCtx{opts: opts, dir: dir, env: env, checks: &checks{}}
	if opts.trace {
		rc.allTr = newTracer()
	}
	var rep *runReport
	pprof.Do(context.Background(), pprof.Labels("workload", w.name), func(ctx context.Context) {
		rc.ctx = ctx
		rep, err = runReps(rc, w)
	})
	return rep, err
}

func runReps(rc *runCtx, w workload) (*runReport, error) {
	opts := rc.opts
	if w.prepare != nil {
		if err := w.prepare(rc); err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
		}
	}
	start := time.Now()

	// Set-up is timed on systems built before any work phase: after a
	// repetition's hundreds of MB of store writes and deletions, the file
	// system's deferred work slows store creation several-fold, and by a
	// different factor every time.
	var setupCPU, setupWall []float64
	for k := 0; k < minSetupSamples || time.Since(start) < opts.seconds/5; k++ {
		rc.runID = opts.workload + "/seed" + strconv.FormatInt(opts.seed, 10) + "/setup" + strconv.Itoa(k)
		dir := filepath.Join(rc.dir, "setup"+strconv.Itoa(k))
		if err := rc.stage(w, dir); err != nil {
			return nil, fmt.Errorf("%s: stage: %w", w.name, err)
		}
		sys, wall, cpu, err := rc.setup(w, dir)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupWall = append(setupWall, wall.Seconds())
		setupCPU = append(setupCPU, cpu.Seconds())
		if err := sys.discard(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}

	var reps []repResult
	var profiles [][]byte
	minReps := 1
	if opts.trace {
		minReps = 2
	}
	var last time.Duration
	for i := 0; ; i++ {
		if i >= minReps && time.Since(start)+last > opts.seconds {
			break
		}
		repStart := time.Now()
		rc.runID = opts.workload + "/seed" + strconv.FormatInt(opts.seed, 10) + "/rep" + strconv.Itoa(i)
		dir := filepath.Join(rc.dir, "rep"+strconv.Itoa(i))
		if err := rc.stage(w, dir); err != nil {
			return nil, fmt.Errorf("%s rep %d: stage: %w", w.name, i, err)
		}
		traced := opts.trace && i%2 == 1
		rc.tr = nil
		var prof bytes.Buffer
		if traced {
			rc.tr = rc.allTr
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		var r repResult
		sys, wall, _, err := rc.setup(w, dir)
		if err == nil {
			r.setup = wall
			err = sys.run(rc, &r)
		}
		if traced {
			pprof.StopCPUProfile()
			profiles = append(profiles, prof.Bytes())
		}
		if err != nil {
			return nil, fmt.Errorf("%s rep %d: %w", w.name, i, err)
		}
		last = time.Since(repStart)
		if i == 0 && len(r.stores) > 0 {
			// Read back once per run, untimed and outside the run's time
			// budget: later repetitions must match this one's checkpoint
			// cursors, which cover every persisted record.
			readStart := time.Now()
			rc.checks.op(addStreamDigests(r.id.Vehicles, r.stores))
			start = start.Add(time.Since(readStart))
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		rc.checks.sameIdentity(i, &r.id)
		reps = append(reps, r)
	}
	if !opts.noGolden {
		rc.checks.golden(opts, w.name, &reps[0].id)
	}

	rep := &runReport{
		Workload:  w.name,
		Seed:      opts.seed,
		Reps:      len(reps),
		Attempted: rc.checks.attempted,
		Failed:    rc.checks.failed,
		Failures:  rc.checks.failures,
		Warnings:  rc.checks.warnings,
		Identity:  reps[0].id,
		Env:       rc.env,
		Metrics:   endToEndValues(reps, setupCPU),
		Ops:       opStatsOf(reps),
	}
	rep.Correct = rep.Failed == 0
	checkWindows(&rep.Env, reps)
	if opts.trace {
		layers, err := layerValues(reps, setupWall, profiles)
		if err != nil {
			return nil, err
		}
		rep.Layers = layers
		var traced []float64
		for i := 1; i < len(reps); i += 2 {
			traced = append(traced, reps[i].work.Seconds())
		}
		rep.TracedWallS = median(traced)
		rep.Spans = selfTimes(rc.allTr.spans)
		if err := writeTrace(opts, w.name, rc.allTr.spans, profiles); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func endToEndValues(reps []repResult, setupCPU []float64) map[string]float64 {
	var wall, allocs []float64
	var heapSum float64
	var heapN int
	for _, r := range reps {
		wall = append(wall, r.work.Seconds())
		allocs = append(allocs, float64(r.allocs))
		heapSum += r.heapSum
		heapN += r.heapN
	}
	return map[string]float64{
		"setup_s":        median(setupCPU),
		"wall_s":         median(wall),
		"mean_heap_mb":   heapSum / float64(max(heapN, 1)) / 1e6,
		"allocs_per_rep": median(allocs),
	}
}

// layerValues derives the per-layer metrics of a traced run: exact counts
// from the last repetition, timing-derived values as medians over all
// repetitions, and CPU shares from the traced repetitions' profiles.
func layerValues(reps []repResult, setupWall []float64, profiles [][]byte) (map[string]float64, error) {
	out := map[string]float64{}
	for _, d := range perLayerDefs() {
		out[d.Name] = 0
	}
	for k, v := range reps[len(reps)-1].counts {
		out[k] = v
	}
	var ops, untraced, traced []float64
	pct := map[string][]float64{}
	var simRate, steadyRate, allocsPerMbit, cpuS []float64
	for i, r := range reps {
		ops = append(ops, r.ops...)
		cpuS = append(cpuS, r.cpu.Seconds())
		switch {
		case i%2 == 1:
			traced = append(traced, r.work.Seconds())
		case i > 0 || len(reps) < 4:
			// The first repetition is the process's coldest; it is left
			// out of the overhead baseline when a later untraced one exists.
			untraced = append(untraced, r.work.Seconds())
		}
		total := r.setup + r.work
		for name, d := range r.parts {
			pct[name] = append(pct[name], 100*d.Seconds()/total.Seconds())
		}
		if r.simBits > 0 {
			simRate = append(simRate, float64(r.simBits)/1e6/r.work.Seconds())
			allocsPerMbit = append(allocsPerMbit, float64(r.allocs)/(float64(r.simBits)/1e6))
		}
		if r.steadyBits > 0 {
			steadyRate = append(steadyRate, float64(r.steadyBits)/1e6/r.steady.Seconds())
		}
	}
	if len(ops) > 0 {
		out["op_p50_ms"] = quantile(ops, 0.50)
		out["op_p90_ms"] = quantile(ops, 0.90)
	}
	for name, v := range pct {
		out[name] = median(v)
	}
	if len(simRate) > 0 {
		out["bus.sim_mbit_per_s"] = median(simRate)
		out["runtime.allocs_per_mbit"] = median(allocsPerMbit)
	}
	if len(steadyRate) > 0 {
		out["bus.steady_mbit_per_s"] = median(steadyRate)
	}
	if len(traced) > 0 && len(untraced) > 0 {
		out["trace_overhead_pct"] = 100 * (median(traced)/median(untraced) - 1)
	}
	out["runtime.gc_cycles"] = float64(reps[len(reps)-1].gcCycles)
	out["runtime.peak_rss_mb"] = peakRSSMB()
	out["runtime.cpu_s"] = median(cpuS)
	out["runtime.setup_wall_s"] = median(setupWall)

	known := map[string]bool{}
	for _, m := range modules {
		known[m] = true
	}
	cpu := map[string]int64{}
	var total int64
	for _, p := range profiles {
		byLayer, err := cpuByLayer(p, known)
		if err != nil {
			return nil, fmt.Errorf("decode CPU profile: %w", err)
		}
		for k, v := range byLayer {
			cpu[k] += v
			total += v
		}
	}
	if total > 0 {
		for k, v := range cpu {
			name := k + ".cpu_share"
			switch k {
			case layerGC:
				name = "runtime.gc_cpu_share"
			case layerOther:
				name = "runtime.other_cpu_share"
			}
			out[name] = 100 * float64(v) / float64(total)
		}
	}
	return out, nil
}

// writeTrace writes the spans and the first traced repetition's CPU profile.
func writeTrace(opts runOpts, name string, spans []span, profiles [][]byte) error {
	if err := os.MkdirAll(opts.traceDir, 0o755); err != nil {
		return err
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(opts.traceDir, name+".spans.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(profiles) > 0 {
		return os.WriteFile(filepath.Join(opts.traceDir, name+".pprof"), profiles[0], 0o644)
	}
	return nil
}

// checks accumulates the run's correctness accounting: operations
// attempted and failed, with the reason for each failure.
type checks struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
	warnings  []string
	first     *identity
}

// op records one attempted operation; a non-nil err counts it as failed.
func (c *checks) op(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, err.Error())
		}
	}
}

func (c *checks) warn(format string, args ...any) {
	c.mu.Lock()
	c.warnings = append(c.warnings, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// opStats reports the workload's per-operation latency by the rule for
// latencies: the median and the highest percentile with at least ten
// samples beyond it, with the sample count.
type opStats struct {
	N      int     `json:"n"`
	P50Ms  float64 `json:"p50_ms"`
	TailP  int     `json:"tail_percentile"`
	TailMs float64 `json:"tail_ms"`
}

func opStatsOf(reps []repResult) opStats {
	var ops []float64
	for _, r := range reps {
		ops = append(ops, r.ops...)
	}
	st := opStats{N: len(ops), TailP: tailPercentile(len(ops))}
	if st.N > 0 {
		st.P50Ms = median(ops)
	}
	if st.TailP > 0 {
		st.TailMs = quantile(ops, float64(st.TailP)/100)
	}
	return st
}
