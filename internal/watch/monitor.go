package watch

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Issue is one wall-clock health finding. Unlike Alert transitions, issues
// are evaluated on read (Monitor.Check) against the host clock: they never
// enter the deterministic alert log, never emit EvAlert, and are never
// persisted — a crash-resumed run must not replay the previous process's
// fsync stalls.
type Issue struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	Reason   string `json:"reason"`
}

// Probe is one wall-clock health check: it inspects the host at now and
// reports zero or more issues.
type Probe func(now time.Time) []Issue

// Monitor aggregates wall-clock probes — the /healthz liveness source.
type Monitor struct {
	mu     sync.Mutex
	probes []Probe
}

// Attach registers a probe.
func (m *Monitor) Attach(p Probe) {
	m.mu.Lock()
	m.probes = append(m.probes, p)
	m.mu.Unlock()
}

// Check runs every probe. A nil Monitor is healthy.
func (m *Monitor) Check(now time.Time) []Issue {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	probes := append([]Probe(nil), m.probes...)
	m.mu.Unlock()
	var issues []Issue
	for _, p := range probes {
		issues = append(issues, p(now)...)
	}
	return issues
}

// StoreBacklogProbe flags a store writer whose drain backlog (events
// buffered but not yet appended) exceeds max — the writer goroutine is
// falling behind or wedged.
func StoreBacklogProbe(backlog func() int64, max int64) Probe {
	return func(time.Time) []Issue {
		if b := backlog(); b > max {
			return []Issue{{
				Rule:     RuleStoreBacklog.String(),
				Severity: SevCritical.String(),
				Reason:   fmt.Sprintf("store writer backlog %d events exceeds bound %d", b, max),
			}}
		}
		return nil
	}
}

// FsyncStallProbe flags a store whose group-commit fsync has not completed
// within max — the disk (or the writer goroutine) is stalled.
func FsyncStallProbe(age func(now time.Time) time.Duration, max time.Duration) Probe {
	return func(now time.Time) []Issue {
		if a := age(now); a > max {
			return []Issue{{
				Rule:     RuleFsyncStall.String(),
				Severity: SevCritical.String(),
				Reason:   fmt.Sprintf("no store fsync for %s (bound %s)", a.Round(time.Millisecond), max),
			}}
		}
		return nil
	}
}

// VehicleProgress is one fleet vehicle's advancement snapshot, read from the
// shard's atomic mirrors (never from the worker itself).
type VehicleProgress struct {
	ID      int
	NowBits int64
	Done    bool
}

// FleetWatcher detects stalled fleet workers: a vehicle that is not done and
// whose NowBits has not advanced for stallAfter is flagged. It keeps a
// per-vehicle high-water mark with the wall time it last moved.
type FleetWatcher struct {
	mu         sync.Mutex
	fetch      func() []VehicleProgress
	stallAfter time.Duration
	seen       map[int]*vehicleMark
}

type vehicleMark struct {
	nowBits int64
	movedAt time.Time
}

// NewFleetWatcher builds a watcher over fetch (typically wrapping
// fleet.Fleet.Vehicles).
func NewFleetWatcher(fetch func() []VehicleProgress, stallAfter time.Duration) *FleetWatcher {
	return &FleetWatcher{
		fetch:      fetch,
		stallAfter: stallAfter,
		seen:       make(map[int]*vehicleMark),
	}
}

// Check is a Probe: it compares each live vehicle's position against its
// high-water mark and flags the ones stuck past the stall bound.
func (fw *FleetWatcher) Check(now time.Time) []Issue {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	var issues []Issue
	for _, vp := range fw.fetch() {
		m, ok := fw.seen[vp.ID]
		if !ok {
			fw.seen[vp.ID] = &vehicleMark{nowBits: vp.NowBits, movedAt: now}
			continue
		}
		if vp.NowBits != m.nowBits {
			m.nowBits = vp.NowBits
			m.movedAt = now
			continue
		}
		if vp.Done {
			continue
		}
		if stuck := now.Sub(m.movedAt); stuck > fw.stallAfter {
			issues = append(issues, Issue{
				Rule:     RuleWorkerStall.String(),
				Severity: SevCritical.String(),
				Reason: fmt.Sprintf("vehicle %d stalled at bit %d for %s",
					vp.ID, vp.NowBits, stuck.Round(time.Millisecond)),
			})
		}
	}
	return issues
}

// VehicleAlerts is one vehicle's contribution to the fleet alert view.
type VehicleAlerts struct {
	ID     int        `json:"id"`
	Active []Alert    `json:"active"`
	SLO    SLOSummary `json:"slo"`
}

// FleetAlertView is the /fleet/alerts payload: every vehicle's active alerts
// and SLO scoreboard, fleet-wide rollups, and the wall-clock health issues.
type FleetAlertView struct {
	Vehicles    []VehicleAlerts  `json:"vehicles"`
	ActiveTotal int              `json:"active_total"`
	ByRule      map[string]int   `json:"by_rule"`
	SLO         SLOSummary       `json:"slo"`
	Health      []Issue          `json:"health"`
	Transitions map[string]int64 `json:"transitions"`
}

// FleetCollector aggregates per-vehicle watch engines into fleet-level
// views. Registration is cheap (a map insert); Snapshot does the merging,
// so workers never block on the collector.
type FleetCollector struct {
	mu      sync.Mutex
	engines map[int]*Engine
	monitor *Monitor
}

// NewFleetCollector builds a collector; monitor (optional) contributes the
// Health section of snapshots.
func NewFleetCollector(monitor *Monitor) *FleetCollector {
	return &FleetCollector{engines: make(map[int]*Engine), monitor: monitor}
}

// Register adds (or replaces) a vehicle's engine.
func (fc *FleetCollector) Register(id int, e *Engine) {
	fc.mu.Lock()
	fc.engines[id] = e
	fc.mu.Unlock()
}

// Unregister drops a vehicle (e.g. on churn retirement).
func (fc *FleetCollector) Unregister(id int) {
	fc.mu.Lock()
	delete(fc.engines, id)
	fc.mu.Unlock()
}

// Snapshot merges every registered engine. Percentiles are recomputed from
// the merged exact histograms, so the fleet p50/p99 are true percentiles
// over all engaged incidents, not averages of averages.
func (fc *FleetCollector) Snapshot(now time.Time) FleetAlertView {
	fc.mu.Lock()
	ids := make([]int, 0, len(fc.engines))
	engines := make(map[int]*Engine, len(fc.engines))
	for id, e := range fc.engines {
		ids = append(ids, id)
		engines[id] = e
	}
	mon := fc.monitor
	fc.mu.Unlock()
	sort.Ints(ids)

	view := FleetAlertView{
		Vehicles:    []VehicleAlerts{},
		ByRule:      make(map[string]int),
		Transitions: make(map[string]int64),
		Health:      []Issue{},
	}
	var merged latencyHist
	for _, id := range ids {
		v := engines[id].fleetView()
		view.Vehicles = append(view.Vehicles, VehicleAlerts{
			ID:     id,
			Active: v.active,
			SLO:    v.slo,
		})
		view.ActiveTotal += len(v.active)
		for _, a := range v.active {
			view.ByRule[a.Rule]++
		}
		view.Transitions["total"] += int64(v.transitions)
		view.SLO.EngagedIncidents += v.slo.EngagedIncidents
		view.SLO.DetectionViolations += v.slo.DetectionViolations
		view.SLO.Eradications += v.slo.Eradications
		view.SLO.EradicationFailures += v.slo.EradicationFailures
		view.SLO.LeakIncidents += v.slo.LeakIncidents
		view.SLO.FramesLeaked += v.slo.FramesLeaked
		for b, c := range v.lat.counts {
			merged.counts[b] += c
		}
		merged.n += v.lat.n
	}
	view.SLO.DetectionP50Bits = merged.percentile(50)
	view.SLO.DetectionP99Bits = merged.percentile(99)
	if issues := mon.Check(now); issues != nil {
		view.Health = issues
	}
	return view
}
