package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"michican/internal/forensics"
	"michican/internal/obs"
	"michican/internal/store"
	"michican/internal/telemetry"
	"michican/internal/watch"
)

// This file is the one constructor of the production telemetry stack, hub →
// forensics → watch → sink → obs, so every surface that watches a run
// attaches, finalizes and detaches its layers in one order (DESIGN.md §5b).
// The caller passes the hub in because the watch engine registers a probe:
// node IDs follow probe registration order and fix the canonical (Time,
// Node, arrival) order and the store's node codes, so each caller keeps its
// order by choosing when to build the stack (a fleet vehicle after its
// nodes, michican-sim between its bus and its nodes).

// Wall-clock self-health bounds for a served stack's /healthz: the store
// writer draining fewer events than this many behind is healthy, and the
// group-commit fsync may lag this long before the probe degrades.
const (
	storeBacklogBound = int64(1) << 16
	fsyncStallBound   = 10 * time.Second
)

// StackConfig selects the layers a Stack attaches to its hub.
type StackConfig struct {
	// Forensics attaches the incident engine.
	Forensics bool
	// Watch attaches the live SLO/alerting engine, fed incident closures by
	// the forensics engine when there is one.
	Watch bool
	// Retain keeps every event in the hub for an exporter (JSONL, Chrome
	// trace). Off, the hub folds metrics and drops the events.
	Retain bool
	// Store, when set, receives the event stream through a sink built with
	// Sink; the stack closes it.
	Store *store.Store
	Sink  store.SinkOptions
}

// Stack is the set of consumers attached to one run's hub. A layer cfg did
// not select is nil.
type Stack struct {
	Hub       *telemetry.Hub
	Forensics *forensics.Engine
	Watch     *watch.Engine
	Store     *store.Store
	Sink      *store.Sink
	server    *obs.Server
}

// NewStack attaches the layers cfg selects to hub, in stream order:
// forensics, then watch behind it, then the store sink.
func NewStack(hub *telemetry.Hub, cfg StackConfig) *Stack {
	hub.RetainEvents(cfg.Retain)
	s := &Stack{Hub: hub, Store: cfg.Store}
	if cfg.Forensics {
		s.Forensics = forensics.NewEngine(hub)
	}
	if cfg.Watch {
		s.Watch = watch.New(hub, s.Forensics, watch.Config{})
	}
	if cfg.Store != nil {
		s.Sink = store.NewSink(cfg.Store, hub, cfg.Sink)
	}
	return s
}

// Serve starts the observability server over the stack on addr. It serves
// /store/* and /alerts when those layers exist, and with a sink /healthz
// degrades to 503 when the store writer backs up or stops fsyncing. Close
// shuts it.
func (s *Stack) Serve(addr string) (*obs.Server, error) {
	var opts []obs.Option
	if s.Store != nil {
		opts = append(opts, obs.WithStore(s.Store))
	}
	if s.Watch != nil {
		opts = append(opts, obs.WithWatch(s.Watch))
	}
	if s.Sink != nil {
		mon := &watch.Monitor{}
		mon.Attach(watch.StoreBacklogProbe(s.Sink.Backlog, storeBacklogBound))
		mon.Attach(watch.FsyncStallProbe(s.Sink.SyncAge, fsyncStallBound))
		opts = append(opts, obs.WithHealth(mon.Check))
	}
	server, err := obs.Serve(addr, s.Hub, s.Forensics, opts...)
	if err != nil {
		return nil, err
	}
	s.server = server
	return server, nil
}

// Finalize ends the run at bit time end: the forensics engine flushes the
// hub and closes the incidents still open at the recording edge, then a
// store receives the incident and alert logs and is sealed (seal).
func (s *Stack) Finalize(end int64) error {
	if s.Forensics != nil {
		s.Forensics.Finalize(end)
	}
	if s.Sink == nil {
		return nil
	}
	var incs []forensics.Incident
	if s.Forensics != nil {
		incs = s.Forensics.Incidents()
	}
	return s.seal(incs, end)
}

// seal persists a finished run: the incident log through the sink
// (honouring any resume skip cursor), the watch engine's alert log likewise,
// then a final checkpoint at end marked Completed.
func (s *Stack) seal(incs []forensics.Incident, end int64) error {
	payloads, err := forensics.EncodeIncidents(incs)
	if err != nil {
		return err
	}
	if err := s.Sink.AppendIncidents(payloads); err != nil {
		return err
	}
	if s.Watch != nil {
		alerts, err := s.Watch.EncodeAlertLog()
		if err != nil {
			return err
		}
		if err := s.Sink.AppendAlerts(alerts); err != nil {
			return err
		}
	}
	return s.Sink.Close(end, true)
}

// Close detaches every layer in the order that loses nothing: the hub's
// reorder window drains into the ordered consumers, the sink (unless
// Finalize sealed it) writes what it holds and syncs, the watch and
// forensics engines unsubscribe, the server shuts, and the store closes. An
// unsealed store resumes from its last checkpoint, as after a crash.
func (s *Stack) Close() error {
	s.Hub.Flush()
	var err error
	if s.Sink != nil {
		err = s.Sink.Close(0, false)
	}
	if s.Watch != nil {
		s.Watch.Close()
	}
	if s.Forensics != nil {
		s.Forensics.Close()
	}
	if s.server != nil {
		err = errors.Join(err, s.server.Close())
	}
	if s.Store != nil {
		err = errors.Join(err, s.Store.Close())
	}
	return err
}

// CreateStore creates a fresh store at dir whose meta.json records config,
// the run's generator: what ResumeStore reads back to rebuild the same run.
func CreateStore(dir string, meta store.Meta, config any) (*store.Store, error) {
	cfg, err := json.Marshal(config)
	if err != nil {
		return nil, err
	}
	meta.Config = cfg
	return store.Create(dir, meta)
}

// ErrRunComplete reports a store whose final checkpoint says the run already
// reached its horizon — there is nothing to resume.
var ErrRunComplete = errors.New("experiment: stored run already complete")

// ResumeStore reopens the store at dir for a resumed run: it decodes the
// generator config meta.json records into config and calls build, which
// constructs the run from it, before it rewinds the logs to the newest
// usable checkpoint, so a config this build cannot run leaves the store
// untouched. The returned options are opts with that checkpoint's skip
// cursor, for the sink that hash-validates the regenerated prefix instead of
// re-appending it. A store with no checkpoint resumes from zero; one whose
// latest checkpoint is Completed returns ErrRunComplete.
func ResumeStore(dir string, config any, opts store.SinkOptions, build func() error) (*store.Store, store.SinkOptions, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, opts, err
	}
	if err = json.Unmarshal(st.Meta().Config, config); err != nil {
		err = fmt.Errorf("resume %s: bad run config in meta.json: %w", dir, err)
	} else if err = build(); err != nil {
		err = fmt.Errorf("resume %s: %w", dir, err)
	} else {
		var completed bool
		if opts, completed, err = st.ResumePoint(opts); err == nil && completed {
			err = ErrRunComplete
		}
	}
	if err != nil {
		st.Close()
		return nil, opts, err
	}
	return st, opts, nil
}

// ReplayStore opens the store at dir and streams the events of its bit-time
// window [from, to] through a fresh stack built from cfg on a fresh hub —
// the pipeline a live run uses — calling visit after each event. It then
// finalizes the stack at the window's end: to for a closed window; for an
// open one, the bit time of the run's Completed checkpoint, or one past the
// newest replayed event for a run that never completed. The stack holds the
// store for reading, with no sink, and closes it.
func ReplayStore(dir string, from, to int64, cfg StackConfig, visit func(telemetry.NamedEvent)) (*Stack, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	s := NewStack(telemetry.NewHub(), cfg)
	s.Store = st
	last := int64(0)
	err = st.EventsInWindow(from, to, func(ev telemetry.NamedEvent) error {
		s.Hub.Probe(ev.Node).Emit(ev.Time, ev.Kind, ev.A, ev.B)
		visit(ev)
		last = max(last, ev.Time)
		return nil
	})
	end := to
	if err == nil && to == store.OpenWindowEnd {
		end = last + 1
		if cp, cerr := st.LatestCheckpoint(); cerr == nil && cp.Completed {
			end = cp.TimeBits
		}
	}
	if err == nil {
		err = s.Finalize(end)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}
