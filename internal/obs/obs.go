// Package obs embeds a live observability server into a running simulation:
// an HTTP surface over the telemetry hub and the forensics engine so
// multi-hour grid runs and replays are inspectable while they advance.
//
// Endpoints:
//
//	/healthz      liveness probe: "ok", or 503 with the wall-clock health
//	              issues (store backlog, fsync stall) when WithHealth wired
//	              a monitor and it reports problems
//	/metrics      Prometheus-style text snapshot of the hub registry
//	/incidents    JSON incident log: closed + in-flight incidents, per-ID
//	              summaries, and engine counters
//	/snapshot     live per-node TEC/REC/fault-confinement state plus
//	              per-path fast-forward hit rates
//	/alerts       live SLO/alert state (internal/watch): active alerts,
//	              the full transition log, and the SLO scoreboard
//	/debug/pprof  the standard Go profiling surface (profile, heap, trace…)
//
// The server runs on its own mux (nothing leaks onto http.DefaultServeMux)
// and its own goroutine; Serve returns once the listener is bound, so an
// ephemeral ":0" address is usable — Addr reports the bound port. The
// simulation datapath is untouched: every handler reads hub metrics through
// atomic snapshots and engine state behind its own mutex, so serving requests
// costs the run nothing until a request arrives.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"michican/internal/bus"
	"michican/internal/controller"
	"michican/internal/forensics"
	"michican/internal/store"
	"michican/internal/telemetry"
	"michican/internal/watch"
)

// Server is a bound, running observability server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Option customizes a Server beyond the hub + engine pair (see WithStore,
// WithWatch, WithHealth).
type Option func(*serverConfig)

// serverConfig collects optional server wiring.
type serverConfig struct {
	store  *store.Store
	watch  *watch.Engine
	health func(now time.Time) []watch.Issue
}

// WithWatch serves the watch engine's live alert/SLO state on /alerts.
func WithWatch(w *watch.Engine) Option {
	return func(c *serverConfig) { c.watch = w }
}

// WithHealth wires a wall-clock health check (typically watch.Monitor.Check)
// into /healthz: any reported issue degrades the probe to 503 with the
// issues as the body.
func WithHealth(check func(now time.Time) []watch.Issue) Option {
	return func(c *serverConfig) { c.health = check }
}

// writeHealth renders the shared /healthz contract: 200 "ok" when check is
// nil or clean, 503 with the JSON issue list otherwise.
func writeHealth(w http.ResponseWriter, check func(time.Time) []watch.Issue) {
	var issues []watch.Issue
	if check != nil {
		issues = check(time.Now())
	}
	if len(issues) == 0 {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Status string        `json:"status"`
		Issues []watch.Issue `json:"issues"`
	}{Status: "degraded", Issues: issues})
}

// Serve binds addr (host:port; use ":0" or "127.0.0.1:0" for an ephemeral
// port) and serves the observability surface for the given hub and engine in
// a background goroutine. Either may be nil: a nil engine serves an empty
// incident log, a nil hub an empty metrics page. Close shuts the listener
// down.
func Serve(addr string, hub *telemetry.Hub, eng *forensics.Engine, opts ...Option) (*Server, error) {
	var cfg serverConfig
	for _, o := range opts {
		o(&cfg)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeHealth(w, cfg.health)
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, _ *http.Request) {
		if cfg.watch == nil {
			writeJSON(w, watch.Snapshot{Active: []watch.Alert{}, Log: []watch.Alert{}})
			return
		}
		writeJSON(w, cfg.watch.Snapshot())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if hub != nil {
			_ = hub.Registry().WriteText(w)
		}
	})
	mux.HandleFunc("/incidents", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, Incidents(eng))
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		v := snapshotView(hub)
		if cfg.store != nil {
			ss := storeStatus(cfg.store)
			v.Store = &ss
		}
		writeJSON(w, v)
	})
	if cfg.store != nil {
		registerStoreHandlers(mux, cfg.store)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "michican observability server")
		fmt.Fprintln(w, "  /healthz   /metrics   /incidents   /snapshot   /alerts   /debug/pprof/")
		if cfg.store != nil {
			fmt.Fprintln(w, "  /store   /store/window?from=&to=   /store/incidents")
		}
	})

	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (with the real port for ":0" binds).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the server and releases the port.
func (s *Server) Close() error { return s.srv.Close() }

// writeJSON renders v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// IncidentsView is the /incidents payload.
type IncidentsView struct {
	// Incidents lists every reconstructed incident, closed and open, in
	// (Start, ID) order.
	Incidents []forensics.Incident `json:"incidents"`
	// InFlight lists only the incidents not yet closed by a same-ID gap.
	InFlight []forensics.Incident `json:"in_flight"`
	// Summaries aggregates per-ID episode and detection-bit distributions.
	Summaries []forensics.IDSummary `json:"summaries"`
	// Engine carries the engine's own counters (events folded, attempts
	// dropped or stray, finalization state).
	Engine forensics.EngineStats `json:"engine"`
}

// Incidents snapshots the engine into the /incidents payload ([]… fields
// stay non-nil so the JSON shape is stable). Exported so command-line
// consumers (-incidents file export) write the same document the live
// endpoint serves.
func Incidents(eng *forensics.Engine) IncidentsView {
	v := IncidentsView{
		Incidents: []forensics.Incident{},
		InFlight:  []forensics.Incident{},
		Summaries: []forensics.IDSummary{},
	}
	if eng == nil {
		return v
	}
	if incs := eng.Incidents(); incs != nil {
		v.Incidents = incs
	}
	if incs := eng.InFlight(); incs != nil {
		v.InFlight = incs
	}
	if sums := eng.Summaries(); sums != nil {
		v.Summaries = sums
	}
	v.Engine = eng.Stats()
	return v
}

// NodeSnapshot is one node's live state in the /snapshot payload, derived
// from the hub's per-node metric instruments.
type NodeSnapshot struct {
	Name string `json:"name"`
	// TEC/REC are the last emitted error-counter values; State applies the
	// fault-confinement thresholds to them (error-active, error-passive,
	// bus-off).
	TEC   int64  `json:"tec"`
	REC   int64  `json:"rec"`
	State string `json:"state"`
	// Counter views of the node's activity so far.
	TxAttempts int64 `json:"tx_attempts"`
	TxSuccess  int64 `json:"tx_success"`
	Errors     int64 `json:"errors"`
	Detections int64 `json:"detections"`
	BusOff     int64 `json:"bus_off"`
	Recoveries int64 `json:"recoveries"`
}

// FastPathSnapshot reports the process-wide fast-forward coverage: bits
// committed per path and each path's share of all simulated bits.
type FastPathSnapshot struct {
	SimulatedBits  int64   `json:"simulated_bits"`
	IdleBits       int64   `json:"idle_bits"`
	FrameBits      int64   `json:"frame_bits"`
	ContendBits    int64   `json:"contend_bits"`
	SpliceBits     int64   `json:"splice_bits"`
	IdleHitRate    float64 `json:"idle_hit_rate"`
	FrameHitRate   float64 `json:"frame_hit_rate"`
	ContendHitRate float64 `json:"contend_hit_rate"`
	SpliceHitRate  float64 `json:"splice_hit_rate"`
}

// SnapshotView is the /snapshot payload.
type SnapshotView struct {
	Nodes     []NodeSnapshot   `json:"nodes"`
	FastPaths FastPathSnapshot `json:"fast_paths"`
	// Store reports the durable store's status when one is attached
	// (WithStore); omitted for in-memory runs.
	Store *StoreStatus `json:"store,omitempty"`
}

// snapshotView assembles the live state page. Metric lookups use the
// registry's Find variants so a read never materializes zero series into the
// /metrics exposition.
func snapshotView(hub *telemetry.Hub) SnapshotView {
	v := SnapshotView{Nodes: []NodeSnapshot{}}
	sim := bus.SimulatedBits()
	v.FastPaths = FastPathSnapshot{
		SimulatedBits: sim,
		IdleBits:      bus.IdleForwardedTotal(),
		FrameBits:     bus.FrameForwardedTotal(),
		ContendBits:   bus.ContendForwardedTotal(),
		SpliceBits:    bus.SpliceForwardedTotal(),
	}
	if sim > 0 {
		v.FastPaths.IdleHitRate = float64(v.FastPaths.IdleBits) / float64(sim)
		v.FastPaths.FrameHitRate = float64(v.FastPaths.FrameBits) / float64(sim)
		v.FastPaths.ContendHitRate = float64(v.FastPaths.ContendBits) / float64(sim)
		v.FastPaths.SpliceHitRate = float64(v.FastPaths.SpliceBits) / float64(sim)
	}
	if hub == nil {
		return v
	}
	reg := hub.Registry()
	counter := func(name, node string) int64 {
		if c := reg.FindCounter(name, "node", node); c != nil {
			return c.Value()
		}
		return 0
	}
	gauge := func(name, node string) int64 {
		if g := reg.FindGauge(name, "node", node); g != nil {
			return int64(g.Value())
		}
		return 0
	}
	for _, name := range hub.Nodes() {
		ns := NodeSnapshot{
			Name:       name,
			TEC:        gauge("michican_tec", name),
			REC:        gauge("michican_rec", name),
			TxAttempts: counter("michican_tx_attempts_total", name),
			TxSuccess:  counter("michican_tx_success_total", name),
			Errors:     counter("michican_errors_total", name),
			Detections: counter("michican_detections_total", name),
			BusOff:     counter("michican_busoff_total", name),
			Recoveries: counter("michican_recoveries_total", name),
		}
		switch {
		case ns.TEC >= controller.BusOffThreshold:
			ns.State = "bus-off"
		case ns.TEC > controller.PassiveThreshold || ns.REC > controller.PassiveThreshold:
			ns.State = "error-passive"
		default:
			ns.State = "error-active"
		}
		v.Nodes = append(v.Nodes, ns)
	}
	return v
}
