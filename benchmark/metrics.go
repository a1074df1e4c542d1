package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef is one metric of the benchmark's schema. The same definitions
// are written to BENCHMARK.json (the schema test keeps the two equal) and
// drive -compare's verdicts.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees. Every workload
// reports every one of them (none is ever zero), so each bound applies to
// every workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "mean_heap_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "allocs_per_rep", Unit: "count", Better: "lower", Bound: 0.05},
}

// modules are the simulator's packages under michican/internal; each is a
// layer whose CPU share the traced run reports.
var modules = []string{
	"attack", "bittime", "bus", "can", "cli", "controller", "core", "experiment",
	"fleet", "forensics", "fsm", "gateway", "ids", "mcu", "obs", "parrot",
	"restbus", "sched", "stats", "store", "telemetry", "trace", "vehicle", "watch",
}

// rungs are the fast-forward ladder's rungs, named as in the hub's
// michican_ff_<rung>_bits_total counters.
var rungs = []string{"idle", "frame", "contend", "splice", "hyper"}

// paperCalls name paper-repro's results in michican-bench -all's order;
// each call gets a share-of-time metric (sched runs in the set-up).
var paperCalls = []string{
	"table1", "table2", "table3", "fig6", "detection", "sweep",
	"multiattacker", "cpu", "busload", "parksense", "sched", "split",
}

// perLayerDefs lists the per-layer metrics a traced run reports. A layer a
// workload does not exercise reports 0; timings that only some workloads
// have are therefore given as shares of the work phase, never as times.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "op_p90_ms", Unit: "ms", Better: "lower"},
		{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	}
	// Exact stepping is the slow path: less of it is better.
	defs = append(defs, metricDef{Name: "bus.exact_bit_share", Unit: "%", Better: "lower"})
	for _, r := range rungs {
		defs = append(defs, metricDef{Name: "bus." + r + "_bit_share", Unit: "%", Better: "higher"})
	}
	defs = append(defs,
		metricDef{Name: "bus.sim_mbit_per_s", Unit: "Mbit/s", Better: "higher"},
		metricDef{Name: "bus.steady_mbit_per_s", Unit: "Mbit/s", Better: "higher"},
		metricDef{Name: "controller.plan_hit_rate", Unit: "%", Better: "higher"},
		metricDef{Name: "controller.plans_resident_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "core.detections", Unit: "count", Better: "higher"},
		metricDef{Name: "core.counterattack_bits", Unit: "count", Better: "lower"},
		metricDef{Name: "telemetry.events_per_mbit", Unit: "1/Mbit", Better: "lower"},
		metricDef{Name: "forensics.incidents", Unit: "count", Better: "higher"},
		metricDef{Name: "forensics.frames_leaked", Unit: "count", Better: "lower"},
		metricDef{Name: "watch.verdicts", Unit: "count", Better: "higher"},
		metricDef{Name: "watch.alert_transitions", Unit: "count", Better: "lower"},
		metricDef{Name: "store.events_appended", Unit: "count", Better: "lower"},
		metricDef{Name: "store.fsyncs", Unit: "count", Better: "lower"},
		metricDef{Name: "store.segments_sealed", Unit: "count", Better: "lower"},
		metricDef{Name: "store.checkpoints", Unit: "count", Better: "lower"},
		metricDef{Name: "store.bytes_per_bit", Unit: "B/bit", Better: "lower"},
		metricDef{Name: "store.finalize_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "store.resume_open_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "store.window_events_per_s", Unit: "1/s", Better: "higher"},
		metricDef{Name: "fleet.commit_calls", Unit: "count", Better: "lower"},
		metricDef{Name: "fleet.updates_per_commit", Unit: "count", Better: "higher"},
		metricDef{Name: "obs.requests", Unit: "count", Better: "higher"},
		metricDef{Name: "obs.request_errors", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "runtime.cpu_s", Unit: "s", Better: "lower"},
		metricDef{Name: "runtime.setup_wall_s", Unit: "s", Better: "lower"},
		metricDef{Name: "runtime.allocs_per_mbit", Unit: "1/Mbit", Better: "lower"},
		metricDef{Name: "runtime.gc_cpu_share", Unit: "%", Better: "lower"},
		metricDef{Name: "runtime.other_cpu_share", Unit: "%", Better: "lower"},
	)
	for _, m := range modules {
		defs = append(defs, metricDef{Name: m + ".cpu_share", Unit: "%", Better: "lower"})
	}
	for _, c := range paperCalls {
		defs = append(defs, metricDef{Name: "experiment." + c + "_pct", Unit: "%", Better: "lower"})
	}
	return defs
}

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks (the "inclusive" method). v need not be sorted.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// tailPercentile applies the reporting rule for latencies: the highest
// percentile (in whole percent, at most 99) that still has at least ten
// samples beyond it. It returns 0 when there are too few samples for any
// percentile above the median to qualify.
func tailPercentile(n int) int {
	for p := 99; p > 50; p-- {
		if n*(100-p) >= 10*100 {
			return p
		}
	}
	return 0
}

// summary is a metric's distribution over the repeats of a set.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	return summary{
		Median: median(v),
		Q1:     quantile(v, 0.25),
		Q3:     quantile(v, 0.75),
		Min:    quantile(v, 0),
		Max:    quantile(v, 1),
		N:      len(v),
	}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func (s summary) String() string {
	return fmt.Sprintf("median %.6g  q1 %.6g  q3 %.6g  min %.6g  max %.6g  n=%d",
		s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
}
