package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"michican/internal/stats"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (negative deltas are ignored — counters only go up).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 gauge.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a mutex-guarded streaming histogram backed by
// stats.Accumulator: constant space, exact mean/stddev/min/max.
type Histogram struct {
	mu  sync.Mutex
	acc stats.Accumulator
}

// Observe folds one sample in.
func (h *Histogram) Observe(x float64) {
	h.mu.Lock()
	h.acc.Add(x)
	h.mu.Unlock()
}

// Summary snapshots the distribution.
func (h *Histogram) Summary() stats.Summary {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.acc.Summarize()
}

// Registry is a named collection of metrics with Prometheus-style
// name-plus-labels identity. Instrument lookups (Counter, Gauge, Histogram)
// are idempotent: the same name and labels return the same instrument, so
// every writer sharing a registry (an experiment's trials, a fleet's
// vehicle commits) aggregates into one set of values.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// metricKey renders the canonical identity of an instrument: the family
// name plus sorted label pairs, in the Prometheus exposition format.
func metricKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic("telemetry: labels must be key/value pairs")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns (creating if needed) the counter with this name and
// label pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge with this name and labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram with this name and
// labels.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		h = &Histogram{}
		r.hists[key] = h
	}
	return h
}

// FindCounter returns the counter with this name and labels, or nil if it
// was never created — unlike Counter it never materializes a zero series,
// which keeps read-only consumers (the observability server's /snapshot)
// from polluting the /metrics exposition.
func (r *Registry) FindCounter(name string, labels ...string) *Counter {
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[key]
}

// FindGauge returns the gauge with this name and labels, or nil if it was
// never created.
func (r *Registry) FindGauge(name string, labels ...string) *Gauge {
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[key]
}

// familyOf strips the label set off a metric key.
func familyOf(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// WriteText renders a Prometheus-style text snapshot: families sorted by
// name with a # TYPE header, series sorted within each family. Histograms
// export as a gauge family of _count/_mean/_stddev/_min/_max series.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for k, c := range r.counters {
		counters[k] = c.Value()
	}
	gauges := make(map[string]float64, len(r.gauges))
	for k, g := range r.gauges {
		gauges[k] = g.Value()
	}
	hists := make(map[string]stats.Summary, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h.Summary()
	}
	r.mu.Unlock()

	// Expand histograms into gauge series.
	for k, s := range hists {
		fam, rest := familyOf(k), ""
		if len(fam) < len(k) {
			rest = k[len(fam):]
		}
		gauges[fam+"_count"+rest] = float64(s.N)
		gauges[fam+"_mean"+rest] = s.Mean
		gauges[fam+"_stddev"+rest] = s.StdDev
		gauges[fam+"_min"+rest] = s.Min
		gauges[fam+"_max"+rest] = s.Max
	}

	type series struct {
		key  string
		kind string // "counter" or "gauge"
		val  string
	}
	all := make([]series, 0, len(counters)+len(gauges))
	for k, v := range counters {
		all = append(all, series{k, "counter", fmt.Sprintf("%d", v)})
	}
	for k, v := range gauges {
		all = append(all, series{k, "gauge", formatFloat(v)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })

	lastFam := ""
	for _, s := range all {
		fam := familyOf(s.key)
		if fam != lastFam {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, s.kind); err != nil {
				return err
			}
			lastFam = fam
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", s.key, s.val); err != nil {
			return err
		}
	}
	return nil
}

// formatFloat renders a gauge value: integers without a decimal point,
// everything else with %g.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
