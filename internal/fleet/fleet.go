// Package fleet is the control plane for running many independent vehicle
// simulations behind one process: a sharded, shared-nothing worker pool plus
// a thresholded net-commit aggregation layer (ROADMAP item 1).
//
// The sharding model is deliberately boring: a vehicle is a complete,
// self-contained simulation (its own bus, nodes, RNG, telemetry hub and
// forensics engine; the only thing shared is the fleet's immutable
// compiled-plan cache, see Plans), and a worker owns a disjoint set of
// vehicles that it advances round-robin in SliceBits quanta. Workers are
// plain goroutines, one per GOMAXPROCS by default, and each yields its P
// (runtime.Gosched) after every slice. Workers are not locked to OS threads:
// such a lock binds a goroutine to a thread, not a thread to a core, so it
// keeps no working set warm, and a CPU-bound worker that never yields holds
// its P until async preemption (~10 ms) while the store sinks, the
// observability handlers and the collector wait behind it. Because no two
// workers ever touch the same vehicle and a vehicle shares no mutable state
// with any other, per-vehicle results are bit-identical for any worker count
// and any join/leave interleaving — the scheduler only decides *when* a
// vehicle's bits get simulated, never *what* they are.
//
// The aggregation layer is where the fleet earns its throughput: per-vehicle
// telemetry counters accumulate through the vehicle's own atomic registry
// (the hot path the simulation already pays), and a per-vehicle NetCommitter
// folds the *net delta* into the fleet-wide Aggregate only when a commit
// trigger fires — at least CommitThreshold hub events pending, or
// commitIntervalBits of simulated time elapsed, whichever comes first, plus
// a final forced commit when the vehicle retires. Millions of per-event
// updates per second therefore reach the shared snapshot as a handful of
// commit batches per second, and the cost of aggregation is independent of
// the event rate.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"michican/internal/controller"
	"michican/internal/forensics"
	"michican/internal/telemetry"
)

// Vehicle is one shardable simulation. The fleet calls Advance, Now,
// HorizonBits and Finalize only from the single worker that owns the
// vehicle, so implementations need no internal locking for them; Hub and
// LiveIncidents are also called from observability readers concurrently
// with Advance and must be safe for that (the telemetry registry's atomic
// instruments and the forensics engine's internal mutex already are).
type Vehicle interface {
	// ID is the vehicle's fleet-unique identity.
	ID() int
	// Advance runs the simulation forward by the given number of bit times.
	Advance(bits int64)
	// Now is the vehicle's current simulated bit time.
	Now() int64
	// HorizonBits is the simulated time at which the vehicle retires on its
	// own; 0 means it runs until removed.
	HorizonBits() int64
	// Hub is the vehicle-local telemetry hub (its registry is the
	// NetCommitter source).
	Hub() *telemetry.Hub
	// LiveIncidents snapshots the vehicle's forensics engine mid-run.
	LiveIncidents() []forensics.Incident
	// Finalize ends the vehicle's life: flush the forensics engine and
	// return the complete incident log for hand-off.
	Finalize() []forensics.Incident
	// Describe is a one-line scenario summary for the snapshot endpoints.
	Describe() string
}

// planSharer is the optional capability through which Add wires the fleet's
// compiled-plan cache into a vehicle built without one of its own.
type planSharer interface {
	PlanSource() *controller.PlanSource
	SharePlans(*controller.PlanSource)
}

// Config sizes the fleet.
type Config struct {
	// Workers is the shared-nothing worker count; 0 means
	// runtime.GOMAXPROCS(0), so a process limited to fewer Ps than cores
	// starts no worker that could never run alongside the others.
	Workers int
	// SliceBits is the scheduling quantum: how much simulated time a worker
	// advances one vehicle before rotating to the next. Default 65536.
	SliceBits int64
	// CommitThreshold is the net-commit trigger in pending hub events (the
	// O(1) logical-update proxy). Default 4096.
	CommitThreshold int64
	// OnFinalize, when set, receives each retiring vehicle and its complete
	// incident log on the worker goroutine, immediately after Finalize and
	// before the aggregate hand-off. This is the durable store's hook: the
	// vehicle's hub and store sink are still alive here, so the retirement
	// persists (incidents appended, final checkpoint written) before the
	// fleet releases the vehicle.
	OnFinalize func(v Vehicle, incs []forensics.Incident)
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.SliceBits <= 0 {
		c.SliceBits = 65536
	}
	if c.CommitThreshold <= 0 {
		c.CommitThreshold = 4096
	}
	return c
}

// commitIntervalBits bounds the staleness of the aggregate: a vehicle
// commits at least every this many simulated bits even when quiet.
const commitIntervalBits = 1 << 20

// shard is the fleet's bookkeeping around one vehicle.
type shard struct {
	v       Vehicle
	nc      *telemetry.NetCommitter
	worker  int
	desc    string
	horizon int64
	// labels carries the worker and vehicle profile labels, built once at
	// placement; the worker switches to it before each slice.
	labels context.Context

	// Worker-owned commit state.
	lastEmits      int64
	lastCommitBits int64

	// Cross-thread views.
	nowBits atomic.Int64
	removed atomic.Bool
	done    atomic.Bool
}

// retiredRecord is the compact memory a long-churning fleet keeps per
// departed vehicle (the vehicle itself, its hub and engine are released).
type retiredRecord struct {
	desc      string
	simBits   int64
	incidents int
	removed   bool
}

// Fleet is the running control plane.
type Fleet struct {
	cfg   Config
	agg   *Aggregate
	plans *controller.PlanSource

	mu        sync.Mutex
	cond      *sync.Cond
	workers   []*worker
	byID      map[int]*shard
	retired   map[int]retiredRecord
	nextW     int
	active    int
	started   bool
	stopFlag  atomic.Bool
	wg        sync.WaitGroup
	joined    atomic.Int64
	completed atomic.Int64
	removedN  atomic.Int64
}

// New creates a stopped fleet.
func New(cfg Config) *Fleet {
	f := &Fleet{
		cfg:     cfg.Defaults(),
		agg:     newAggregate(),
		plans:   controller.NewPlanSource(),
		byID:    make(map[int]*shard),
		retired: make(map[int]retiredRecord),
	}
	f.cond = sync.NewCond(&f.mu)
	for i := 0; i < f.cfg.Workers; i++ {
		w := &worker{f: f, labels: pprof.WithLabels(context.Background(), pprof.Labels("fleet-worker", strconv.Itoa(i)))}
		w.cond = sync.NewCond(&w.mu)
		f.workers = append(f.workers, w)
	}
	return f
}

// Aggregate returns the fleet-wide snapshot store.
func (f *Fleet) Aggregate() *Aggregate { return f.agg }

// Config returns the effective (defaulted) configuration.
func (f *Fleet) Config() Config { return f.cfg }

// Plans returns the compiled-plan cache Add wires into every vehicle that
// joins without one of its own, resumed vehicles included.
func (f *Fleet) Plans() *controller.PlanSource { return f.plans }

// Add joins a vehicle, before or after Start. Assignment is round-robin in
// join order, which keeps shard placement deterministic for a deterministic
// join sequence. A vehicle that can share plans and has no source yet is
// wired to Plans before its first Advance; one with its own source keeps it.
func (f *Fleet) Add(v Vehicle) error {
	s := &shard{
		v:       v,
		nc:      telemetry.NewNetCommitter(v.Hub().Registry(), f.agg.reg),
		desc:    v.Describe(),
		horizon: v.HorizonBits(),
	}
	s.nowBits.Store(v.Now())

	f.mu.Lock()
	if f.stopFlag.Load() {
		f.mu.Unlock()
		return errors.New("fleet: stopped")
	}
	if _, dup := f.byID[v.ID()]; dup {
		f.mu.Unlock()
		return fmt.Errorf("fleet: duplicate vehicle id %d", v.ID())
	}
	if _, dup := f.retired[v.ID()]; dup {
		f.mu.Unlock()
		return fmt.Errorf("fleet: vehicle id %d already retired", v.ID())
	}
	s.worker = f.nextW
	f.nextW = (f.nextW + 1) % len(f.workers)
	f.byID[v.ID()] = s
	f.active++
	f.joined.Add(1)
	w := f.workers[s.worker]
	f.mu.Unlock()
	s.labels = pprof.WithLabels(w.labels, pprof.Labels("vehicle", strconv.Itoa(v.ID())))

	if ps, ok := v.(planSharer); ok && ps.PlanSource() == nil {
		ps.SharePlans(f.plans)
	}
	w.add(s)
	return nil
}

// Remove marks a vehicle for retirement; its worker finalizes it at the
// next slice boundary (final commit, incident hand-off). Returns false for
// unknown or already-retired ids.
func (f *Fleet) Remove(id int) bool {
	f.mu.Lock()
	s, ok := f.byID[id]
	f.mu.Unlock()
	if !ok || s.done.Load() {
		return false
	}
	s.removed.Store(true)
	return true
}

// Start launches the workers.
func (f *Fleet) Start() {
	f.mu.Lock()
	if f.started {
		f.mu.Unlock()
		return
	}
	f.started = true
	f.mu.Unlock()
	for _, w := range f.workers {
		f.wg.Add(1)
		go w.run()
	}
}

// Wait blocks until every joined vehicle has retired (horizon or Remove),
// or the fleet is stopped. Vehicles added while waiting extend the wait.
func (f *Fleet) Wait() {
	f.mu.Lock()
	for f.active > 0 && !f.stopFlag.Load() {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// Stop halts the workers (vehicles still active are left un-finalized) and
// waits for them to exit. Idempotent.
func (f *Fleet) Stop() {
	if f.stopFlag.Swap(true) {
		f.wg.Wait()
		return
	}
	for _, w := range f.workers {
		w.mu.Lock()
		w.cond.Broadcast()
		w.mu.Unlock()
	}
	f.mu.Lock()
	f.cond.Broadcast()
	f.mu.Unlock()
	f.wg.Wait()
}

// onRetired moves a shard to the retired map and wakes waiters.
func (f *Fleet) onRetired(s *shard, r retiredRecord) {
	f.mu.Lock()
	delete(f.byID, s.v.ID())
	f.retired[s.v.ID()] = r
	f.active--
	f.completed.Add(1)
	if r.removed {
		f.removedN.Add(1)
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// worker owns a disjoint set of shards and advances them round-robin.
type worker struct {
	f *Fleet
	// labels carries the worker's profile label, the parent of its shards'.
	labels context.Context
	mu     sync.Mutex
	cond   *sync.Cond
	// shards is the worker's run queue; next is the round-robin cursor.
	shards []*shard
	next   int
}

// add enqueues a shard and wakes the worker if it was idle.
func (w *worker) add(s *shard) {
	w.mu.Lock()
	w.shards = append(w.shards, s)
	w.cond.Signal()
	w.mu.Unlock()
}

// drop removes a retired shard from the queue.
func (w *worker) drop(s *shard) {
	w.mu.Lock()
	for i, q := range w.shards {
		if q == s {
			w.shards = append(w.shards[:i], w.shards[i+1:]...)
			if w.next > i {
				w.next--
			}
			break
		}
	}
	w.mu.Unlock()
}

// run is the worker loop: it takes the next shard in rotation, advances it
// one slice, applies the commit policy, and yields its P so the goroutines
// beside the fleet (store sinks, HTTP handlers, the collector) run within a
// slice rather than at the next preemption. Each step runs under the
// shard's worker and vehicle pprof labels, so CPU/heap profiles of a fleet
// run split by worker and "which vehicle is this worker burning time on"
// falls straight out of /debug/pprof/profile.
func (w *worker) run() {
	defer w.f.wg.Done()
	pprof.SetGoroutineLabels(w.labels)
	for {
		s := w.take()
		if s == nil {
			return
		}
		pprof.SetGoroutineLabels(s.labels)
		w.step(s)
		runtime.Gosched()
	}
}

// take returns the next shard in rotation, blocking while the queue is
// empty; it returns nil once the fleet stops.
func (w *worker) take() *shard {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.f.stopFlag.Load() {
			return nil
		}
		if len(w.shards) > 0 {
			if w.next >= len(w.shards) {
				w.next = 0
			}
			s := w.shards[w.next]
			w.next++
			return s
		}
		w.cond.Wait()
	}
}

// step advances one shard by at most one slice, commits if the policy
// fires, and retires the shard at its horizon or on removal.
func (w *worker) step(s *shard) {
	slice := w.f.cfg.SliceBits
	if s.horizon > 0 {
		if rem := s.horizon - s.v.Now(); rem < slice {
			slice = rem
		}
	}
	if slice > 0 && !s.removed.Load() {
		s.v.Advance(slice)
		s.nowBits.Store(s.v.Now())
	}
	done := s.removed.Load() || (s.horizon > 0 && s.v.Now() >= s.horizon)
	w.commit(s, done)
	if done {
		w.retire(s)
	}
}

// commit applies the thresholded net-commit policy: fold the vehicle's
// pending counter deltas into the aggregate when enough hub events are
// pending, enough simulated time has passed, or the vehicle is retiring.
func (w *worker) commit(s *shard, force bool) {
	cfg := w.f.cfg
	pendingEvents := s.v.Hub().EmitCount() - s.lastEmits
	now := s.v.Now()
	pendingBits := now - s.lastCommitBits
	if !force && pendingEvents < cfg.CommitThreshold && pendingBits < commitIntervalBits {
		return
	}
	if pendingEvents == 0 && pendingBits == 0 {
		return
	}
	agg := w.f.agg
	agg.commitBatch(func() {
		delta := s.nc.Commit()
		agg.simBits.Add(pendingBits)
		agg.commitCalls.Add(1)
		agg.logicalUpdates.Add(pendingEvents)
		agg.committedDelta.Add(delta)
	})
	s.lastEmits += pendingEvents
	s.lastCommitBits = now
}

// retire finalizes a shard: flush forensics, hand incidents to the
// aggregate, release the vehicle.
func (w *worker) retire(s *shard) {
	if s.done.Swap(true) {
		return
	}
	incs := s.v.Finalize()
	if cb := w.f.cfg.OnFinalize; cb != nil {
		cb(s.v, incs)
	}
	w.f.agg.handOff(s.v.ID(), incs)
	r := retiredRecord{
		desc:      s.desc,
		simBits:   s.v.Now(),
		incidents: len(incs),
		removed:   s.removed.Load(),
	}
	w.drop(s)
	w.f.onRetired(s, r)
}

// Health is the /fleet/healthz payload.
type Health struct {
	Status             string `json:"status"`
	Workers            int    `json:"workers"`
	ActiveVehicles     int    `json:"active_vehicles"`
	Joined             int64  `json:"vehicles_joined"`
	Completed          int64  `json:"vehicles_completed"`
	Removed            int64  `json:"vehicles_removed"`
	SliceBits          int64  `json:"slice_bits"`
	CommitThreshold    int64  `json:"commit_threshold"`
	CommitIntervalBits int64  `json:"commit_interval_bits"`
}

// Health snapshots fleet liveness.
func (f *Fleet) Health() Health {
	f.mu.Lock()
	active := f.active
	f.mu.Unlock()
	return Health{
		Status:             "ok",
		Workers:            f.cfg.Workers,
		ActiveVehicles:     active,
		Joined:             f.joined.Load(),
		Completed:          f.completed.Load(),
		Removed:            f.removedN.Load(),
		SliceBits:          f.cfg.SliceBits,
		CommitThreshold:    f.cfg.CommitThreshold,
		CommitIntervalBits: commitIntervalBits,
	}
}

// VehicleInfo is one row of the /fleet/vehicles listing.
type VehicleInfo struct {
	ID          int    `json:"id"`
	Describe    string `json:"describe"`
	Worker      int    `json:"worker,omitempty"`
	NowBits     int64  `json:"now_bits"`
	HorizonBits int64  `json:"horizon_bits"`
	Done        bool   `json:"done"`
	Incidents   int    `json:"incidents,omitempty"`
}

// Vehicles lists active vehicles first (by id), then retired ones.
func (f *Fleet) Vehicles() []VehicleInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]VehicleInfo, 0, len(f.byID)+len(f.retired))
	for id, s := range f.byID {
		out = append(out, VehicleInfo{
			ID:          id,
			Describe:    s.desc,
			Worker:      s.worker,
			NowBits:     s.nowBits.Load(),
			HorizonBits: s.horizon,
		})
	}
	for id, r := range f.retired {
		out = append(out, VehicleInfo{
			ID:          id,
			Describe:    r.desc,
			NowBits:     r.simBits,
			HorizonBits: r.simBits,
			Done:        true,
			Incidents:   r.incidents,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Done != out[j].Done {
			return !out[i].Done
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// VehicleSnapshot is the /fleet/vehicles/{id}/snapshot payload: the
// vehicle's own live registry (counters *and* gauges — gauges are
// meaningful per vehicle, unlike in the cross-vehicle aggregate) plus its
// live incident log.
type VehicleSnapshot struct {
	VehicleInfo
	Counters  telemetry.CounterSnapshot `json:"counters,omitempty"`
	Gauges    telemetry.GaugeSnapshot   `json:"gauges,omitempty"`
	Live      []forensics.Incident      `json:"live_incidents,omitempty"`
	LiveCount int                       `json:"live_incident_count"`
}

// VehicleSnapshot reads one vehicle's live state without touching its
// worker: registry reads are atomic, the forensics engine locks internally,
// and the current bit time comes from the shard's atomic mirror.
func (f *Fleet) VehicleSnapshot(id int) (VehicleSnapshot, bool) {
	f.mu.Lock()
	s, live := f.byID[id]
	r, gone := f.retired[id]
	f.mu.Unlock()
	switch {
	case live:
		incs := s.v.LiveIncidents()
		return VehicleSnapshot{
			VehicleInfo: VehicleInfo{
				ID:          id,
				Describe:    s.desc,
				Worker:      s.worker,
				NowBits:     s.nowBits.Load(),
				HorizonBits: s.horizon,
			},
			Counters:  s.v.Hub().Registry().SnapshotCounters(),
			Gauges:    s.v.Hub().Registry().SnapshotGauges(),
			Live:      incs,
			LiveCount: len(incs),
		}, true
	case gone:
		return VehicleSnapshot{
			VehicleInfo: VehicleInfo{
				ID:          id,
				Describe:    r.desc,
				NowBits:     r.simBits,
				HorizonBits: r.simBits,
				Done:        true,
				Incidents:   r.incidents,
			},
			LiveCount: r.incidents,
		}, true
	default:
		return VehicleSnapshot{}, false
	}
}
