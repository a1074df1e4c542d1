// Command michican-sim runs a single MichiCAN scenario and prints the
// timeline, the decoded bus events, and the outcome:
//
//	michican-sim -defender 0x173 -attack spoof -duration 200ms
//	michican-sim -defender 0x173 -attack dos -attack-id 0x064 -restbus
//	michican-sim -attack dos -attack-id 0x000 -no-defense  # watch it starve
//	michican-sim -attack spoof -trace trace.txt            # dump bits for candump
//	michican-sim -attack spoof -events e.jsonl -chrome-trace t.json
//	michican-sim -attack spoof -json                       # machine-readable outcome
//	michican-sim -attack spoof -http 127.0.0.1:0 -linger 30s  # live observability
//	michican-sim -attack spoof -incidents inc.json         # forensics incident log
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"michican/internal/attack"
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/cli"
	"michican/internal/controller"
	"michican/internal/core"
	"michican/internal/forensics"
	"michican/internal/fsm"
	"michican/internal/obs"
	"michican/internal/restbus"
	"michican/internal/store"
	"michican/internal/telemetry"
	"michican/internal/trace"
	"michican/internal/watch"
)

// Wall-clock self-health bounds for the -http liveness probe: the store
// writer draining fewer events than this many behind is healthy, and the
// group-commit fsync may lag this long before /healthz degrades.
const (
	storeBacklogBound = int64(1) << 16
	fsyncStallBound   = 10 * time.Second
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "michican-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		rateFlag   = flag.Int("rate", 50_000, "bus speed in bit/s")
		defender   = flag.String("defender", "0x173", "defended ECU's CAN ID")
		attackKind = flag.String("attack", "spoof", "attack: spoof|dos|toggle|misc|none")
		attackID   = flag.String("attack-id", "", "attacker CAN ID (default: defender for spoof, 0x064 for dos)")
		noDefense  = flag.Bool("no-defense", false, "leave the ECU unpatched")
		withRest   = flag.Bool("restbus", false, "replay Veh. D benign traffic")
		matrixFile = flag.String("matrix", "", "replay benign traffic from a communication-matrix file")
		duration   = flag.Duration("duration", 200*time.Millisecond, "simulation length")
		traceOut   = flag.String("trace", "", "write the raw bit trace to this file")
		eventsOut  = flag.String("events", "", "write the telemetry event stream (JSONL) to this file")
		chromeOut  = flag.String("chrome-trace", "", "write a Chrome trace_event JSON (Perfetto-viewable) to this file")
		jsonOut    = flag.Bool("json", false, "emit the outcome as one JSON object instead of text")
		httpAddr   = flag.String("http", "", "serve live observability (/metrics /incidents /snapshot /debug/pprof) on this address (use :0 for an ephemeral port)")
		watchFlag  = flag.Bool("watch", false, "attach the live SLO/alerting engine (serves /alerts under -http, persists the alert log under -store)")
		linger     = flag.Duration("linger", 0, "keep the -http server up this long after the run (so probes and profilers can attach)")
		incOut     = flag.String("incidents", "", "write the forensics incident log (JSON, same shape as /incidents) to this file")
		storeDir   = flag.String("store", "", "persist the run into a durable store at this directory (segments + checkpoints, DESIGN.md §8)")
		resumeDir  = flag.String("resume", "", "resume an interrupted -store run from its last checkpoint (scenario flags come from the store)")
		replayWin  = flag.String("replay-window", "", "time-travel replay: re-open this bit-time window (from:to, either side open) from the -store directory instead of simulating; alerts regenerate for every rule except ladder-collapse, which needs the fast-forward spans the store does not keep")
		cpInterval = flag.Int64("checkpoint-interval", 1<<20, "bits of sim progress between automatic checkpoints under -store/-resume")
		verbose    = flag.Bool("v", false, "print every decoded bus event")
	)
	flag.Parse()

	if *replayWin != "" {
		dir := *storeDir
		if dir == "" {
			dir = *resumeDir
		}
		if dir == "" {
			return fmt.Errorf("-replay-window needs -store <dir> pointing at an existing store")
		}
		return runReplay(dir, *replayWin, *eventsOut, *chromeOut, *incOut, *jsonOut, *verbose)
	}
	if *storeDir != "" && *resumeDir != "" {
		return fmt.Errorf("-store creates a fresh run and -resume continues one; pick one")
	}

	// Resume rewinds the store to its newest checkpoint and replaces the
	// scenario flags with the parameters recorded at -store time, so the
	// regenerated run is bit-identical to the interrupted one.
	var (
		st       *store.Store
		sinkOpts store.SinkOptions
	)
	if *resumeDir != "" {
		var err error
		if st, err = store.Open(*resumeDir); err != nil {
			return err
		}
		defer st.Close()
		var params simParams
		if err := json.Unmarshal(st.Meta().Config, &params); err != nil {
			return fmt.Errorf("resume %s: bad sim parameters in meta.json: %w", *resumeDir, err)
		}
		var completed bool
		if sinkOpts, completed, err = st.ResumePoint(); err != nil {
			return err
		}
		if completed {
			return fmt.Errorf("resume %s: stored run already complete (replay it with -replay-window)", *resumeDir)
		}
		params.apply(rateFlag, defender, attackKind, attackID, noDefense, withRest, matrixFile, duration, watchFlag)
		if !*jsonOut {
			fmt.Printf("resuming from %s: %d events durable through bit %d\n",
				*resumeDir, sinkOpts.SkipEvents, sinkOpts.ResumeFromBits)
		}
	}

	rate := bus.Rate(*rateFlag)
	defID, err := cli.ParseID(*defender)
	if err != nil {
		return err
	}
	attID := defID
	if *attackID != "" {
		if attID, err = cli.ParseID(*attackID); err != nil {
			return err
		}
	} else if *attackKind == "dos" {
		attID = 0x064
	}

	b := bus.New(rate)
	rec := trace.NewRecorder()
	b.AttachTap(rec)

	// The telemetry hub collects typed events from every participant; it is
	// only created when an exporter asked for it, so the default run pays
	// nothing beyond the disabled-probe nil checks. A durable store is such
	// an exporter: the sink streams the hub to disk.
	var hub *telemetry.Hub
	if *eventsOut != "" || *chromeOut != "" || *httpAddr != "" || *incOut != "" ||
		*storeDir != "" || st != nil || *watchFlag {
		hub = telemetry.NewHub()
		b.SetTelemetry(hub, "bus")
	}

	// Fresh -store runs record the scenario parameters as the store's
	// generator config — that is what -resume reads back to rebuild this
	// exact run.
	if *storeDir != "" {
		params := simParams{
			Rate: *rateFlag, Defender: *defender, Attack: *attackKind,
			AttackID: *attackID, NoDefense: *noDefense, Restbus: *withRest,
			MatrixFile: *matrixFile, DurationNS: int64(*duration), Watch: *watchFlag,
		}
		cfg, err := json.Marshal(params)
		if err != nil {
			return err
		}
		if st, err = store.Create(*storeDir, store.Meta{Kind: "sim", Config: cfg}); err != nil {
			return err
		}
		defer st.Close()
	}
	var sink *store.Sink
	if st != nil {
		sinkOpts.CheckpointIntervalBits = *cpInterval
		sink = store.NewSink(st, hub, sinkOpts)
	}

	// The forensics engine streams off the hub (no retained-log copies) and
	// reconstructs per-attack incidents; the observability server exposes it
	// live alongside the metrics registry, and a durable run persists its
	// incident log at finalize.
	var eng *forensics.Engine
	if *httpAddr != "" || *incOut != "" || sink != nil || *watchFlag {
		eng = forensics.NewEngine(hub)
		defer eng.Close()
	}
	// The watch engine rides behind forensics: it scores incident closures
	// (detection-latency / eradication / leak SLOs) live and keeps the
	// deterministic alert log a durable run persists at finalize.
	var watcher *watch.Engine
	if *watchFlag {
		watcher = watch.New(hub, eng, watch.Config{})
	}
	var server *obs.Server
	if *httpAddr != "" {
		var obsOpts []obs.Option
		if st != nil {
			obsOpts = append(obsOpts, obs.WithStore(st))
		}
		if watcher != nil {
			obsOpts = append(obsOpts, obs.WithWatch(watcher))
		}
		if sink != nil {
			// Wall-clock self-health: the liveness probe degrades to 503 when
			// the store writer backs up or stops fsyncing.
			mon := &watch.Monitor{}
			mon.Attach(watch.StoreBacklogProbe(sink.Backlog, storeBacklogBound))
			mon.Attach(watch.FsyncStallProbe(sink.SyncAge, fsyncStallBound))
			obsOpts = append(obsOpts, obs.WithHealth(mon.Check))
		}
		server, err = obs.Serve(*httpAddr, hub, eng, obsOpts...)
		if err != nil {
			return err
		}
		defer server.Close()
		// The bound URL goes to stderr under -json so stdout stays one
		// machine-readable object.
		bannerTo := os.Stdout
		if *jsonOut {
			bannerTo = os.Stderr
		}
		fmt.Fprintf(bannerTo, "observability server listening on %s\n", server.URL())
	}

	// Legitimate IDs: the defender plus optional restbus.
	ids := []can.ID{defID}
	var benign *restbus.Matrix
	switch {
	case *matrixFile != "":
		f, err := os.Open(*matrixFile)
		if err != nil {
			return err
		}
		benign, err = restbus.ParseMatrix(f)
		f.Close()
		if err != nil {
			return err
		}
	case *withRest:
		benign = restbus.Buses(restbus.VehD)[0]
	}
	if benign != nil {
		filtered := &restbus.Matrix{Vehicle: benign.Vehicle, Bus: benign.Bus}
		for _, msg := range benign.Messages {
			if msg.ID != defID && msg.ID != attID {
				filtered.Messages = append(filtered.Messages, msg)
			}
		}
		ids = append(ids, filtered.IDs()...)
		rep := restbus.NewReplayer("restbus", filtered, rate, nil)
		rep.SetTelemetry(hub)
		b.Attach(rep)
	}

	defCtl := controller.New(controller.Config{Name: "defender", AutoRecover: true})
	var defense *core.Defense
	if !*noDefense {
		v, err := fsm.NewIVN(ids)
		if err != nil {
			return err
		}
		ds, err := fsm.NewDetectionSet(v, v.Index(defID))
		if err != nil {
			return err
		}
		defense, err = core.New(core.Config{
			Name: "michican",
			FSM:  fsm.Build(ds),
			OnDetect: func(t bus.BitTime, pos int) {
				if *verbose {
					fmt.Printf("t=%-8d DETECT at ID bit %d\n", t, pos)
				}
			},
			OnCounterattack: func(t bus.BitTime) {
				if *verbose {
					fmt.Printf("t=%-8d COUNTERATTACK (pull CAN_TX low, 7 bits)\n", t)
				}
			},
		})
		if err != nil {
			return err
		}
		ecu := core.NewECU(defCtl, defense)
		ecu.SetTelemetry(hub)
		b.Attach(ecu)
	} else {
		defCtl.SetTelemetry(hub)
		b.Attach(defCtl)
	}

	var att *attack.Attacker
	switch *attackKind {
	case "spoof":
		att = attack.NewFabrication("attacker", attID, []byte{0xDE, 0xAD, 0xBE, 0xEF}, 0)
	case "dos":
		att = attack.NewTargetedDoS("attacker", attID)
	case "toggle":
		att = attack.NewToggling("attacker", attID, attID+1)
	case "misc":
		att = attack.NewMiscellaneous("attacker", attID, 500)
	case "none":
	default:
		return fmt.Errorf("unknown attack %q", *attackKind)
	}
	if att != nil {
		att.SetTelemetry(hub)
		b.Attach(att)
		if !*jsonOut {
			fmt.Printf("attack: %s with ID %s against defender %s on a %v bus (defense: %v)\n",
				*attackKind, attID, defID, rate, !*noDefense)
		}
	}

	b.RunFor(*duration)
	if eng != nil {
		eng.Finalize(int64(b.Now()))
	}
	if sink != nil {
		// Finalize durability: the incident log lands in the store, then the
		// final Completed checkpoint seals the run as resumable-no-more.
		payloads, err := forensics.EncodeIncidents(eng.Incidents())
		if err != nil {
			return err
		}
		if err := sink.AppendIncidents(payloads); err != nil {
			return err
		}
		if watcher != nil {
			alerts, err := watcher.EncodeAlertLog()
			if err != nil {
				return err
			}
			if err := sink.AppendAlerts(alerts); err != nil {
				return err
			}
		}
		if err := sink.Close(int64(b.Now()), true); err != nil {
			return err
		}
		if !*jsonOut {
			stats := st.Stats()
			fmt.Printf("durable store finalized at %s: %d events, %d incidents, %d alerts, %d KiB on disk\n",
				st.Dir(), st.EventCount(), st.IncidentCount(), st.AlertCount(), stats.DiskBytes/1024)
		}
	}

	events := trace.Decode(rec.Bits(), rec.Start())
	frames, errors := 0, 0
	for _, e := range events {
		if e.Kind == trace.FrameEvent {
			frames++
		} else {
			errors++
		}
		if *verbose && !*jsonOut {
			fmt.Printf("t=%-8d %-5s %s (%d bits)\n", e.Start, e.Kind, e.ID, e.Bits())
		}
	}
	if *jsonOut {
		if err := writeJSONReport(os.Stdout, *attackKind, attID, defID, rate, *duration,
			rec.Len(), frames, errors, trace.Load(events, int64(rec.Len())), att, defCtl, defense); err != nil {
			return err
		}
	} else {
		fmt.Printf("\nsimulated %v (%d bits): %d complete frames, %d destroyed attempts, bus load %.1f%%\n",
			*duration, rec.Len(), frames, errors, trace.Load(events, int64(rec.Len()))*100)
		if att != nil {
			st := att.Controller().Stats()
			fmt.Printf("attacker: %d attempts, %d successes, %d bus-off events, state %v\n",
				st.TxAttempts, st.TxSuccess, st.BusOffEvents, att.Controller().State())
		}
		if defense != nil {
			ds := defense.Stats()
			fmt.Printf("defense: %d detections (mean position %.1f bits), %d counterattacks\n",
				ds.Detections, ds.MeanDetectionBits(), ds.Counterattacks)
		}
		if watcher != nil {
			s := watcher.SLO()
			fmt.Printf("slo: %d engaged campaigns, detect p50/p99 %.0f/%.0f bits (%d violations), %d eradicated / %d failed, %d frames leaked, %d alert transitions\n",
				s.EngagedIncidents, s.DetectionP50Bits, s.DetectionP99Bits, s.DetectionViolations,
				s.Eradications, s.EradicationFailures, s.FramesLeaked, len(watcher.Alerts()))
		}
	}
	if *traceOut != "" {
		if err := os.WriteFile(*traceOut, []byte(trace.FormatBits(rec.Bits(), 120)), 0o644); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Printf("raw bit trace written to %s (decode with candump)\n", *traceOut)
		}
	}
	if hub != nil {
		if err := writeExporters(hub, rate, *eventsOut, *chromeOut, !*jsonOut); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Println("\ntelemetry metrics:")
			if err := hub.Registry().WriteText(os.Stdout); err != nil {
				return err
			}
		}
	}
	if *incOut != "" {
		doc, err := json.MarshalIndent(obs.Incidents(eng), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*incOut, append(doc, '\n'), 0o644); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Printf("forensics incident log written to %s\n", *incOut)
		}
	}
	if server != nil && *linger > 0 {
		if !*jsonOut {
			fmt.Printf("lingering %v for probes on %s (Ctrl-C to stop)\n", *linger, server.URL())
		}
		time.Sleep(*linger)
	}
	return nil
}

// simParams is the scenario's generator config, recorded into the store's
// meta.json at -store time and read back by -resume so the regenerated run is
// bit-identical to the interrupted one. A matrix file is referenced by path:
// resume requires it unchanged at the same location.
type simParams struct {
	Rate       int    `json:"rate"`
	Defender   string `json:"defender"`
	Attack     string `json:"attack"`
	AttackID   string `json:"attack_id,omitempty"`
	NoDefense  bool   `json:"no_defense,omitempty"`
	Restbus    bool   `json:"restbus,omitempty"`
	MatrixFile string `json:"matrix_file,omitempty"`
	DurationNS int64  `json:"duration_ns"`
	// Watch is part of the generator config because the alert log it
	// produces is persisted: a resumed run must re-attach the watch engine
	// to regenerate the same alert bytes.
	Watch bool `json:"watch,omitempty"`
}

// apply overwrites the scenario flag values with the stored parameters.
func (p simParams) apply(rate *int, defender, attackKind, attackID *string,
	noDefense, withRest *bool, matrixFile *string, duration *time.Duration, watch *bool) {
	*rate = p.Rate
	*defender = p.Defender
	*attackKind = p.Attack
	*attackID = p.AttackID
	*noDefense = p.NoDefense
	*withRest = p.Restbus
	*matrixFile = p.MatrixFile
	*duration = time.Duration(p.DurationNS)
	*watch = p.Watch
}

// runReplay is the time-travel path: no simulation runs. The stored event
// window streams through a fresh hub — the same pipeline a live run uses — so
// every exporter (JSONL, Chrome trace, incident log) works on historical data,
// and a fresh forensics engine reconstructs the window's incidents.
func runReplay(dir, window, eventsOut, chromeOut, incOut string, jsonOut, verbose bool) error {
	from, to, err := store.ParseWindow(window)
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()

	// The recorded parameters carry the bus rate the Chrome trace needs to
	// convert bit times into wall time.
	rate := bus.Rate(50_000)
	var params simParams
	if len(st.Meta().Config) > 0 && json.Unmarshal(st.Meta().Config, &params) == nil && params.Rate > 0 {
		rate = bus.Rate(params.Rate)
	}

	hub := telemetry.NewHub()
	eng := forensics.NewEngine(hub)
	defer eng.Close()
	// Alert replay: a fresh watch engine rides the replayed stream, so the
	// window's SLO verdicts and alert transitions regenerate from history as
	// the live run produced them — every rule except ladder-collapse, which
	// folds fast-forward spans, and the store keeps none.
	watcher := watch.New(hub, eng, watch.Config{})
	replayed, last := 0, int64(0)
	err = st.EventsInWindow(from, to, func(ev telemetry.NamedEvent) error {
		hub.Probe(ev.Node).Emit(ev.Time, ev.Kind, ev.A, ev.B)
		if verbose && !jsonOut {
			fmt.Printf("t=%-8d %-10s %s a=%d b=%d\n", ev.Time, ev.Kind, ev.Node, ev.A, ev.B)
		}
		replayed++
		if ev.Time > last {
			last = ev.Time
		}
		return nil
	})
	if err != nil {
		return err
	}
	end := last + 1
	if to < int64(1)<<62 {
		end = to
	}
	eng.Finalize(end)

	alerts := watcher.Alerts()
	if !jsonOut {
		fmt.Printf("replayed %d stored events from %s (window %s, %d on record)\n",
			replayed, dir, window, st.EventCount())
		if len(alerts) > 0 || st.AlertCount() > 0 {
			fmt.Printf("alert replay: %d transitions regenerated (%d persisted in the store)\n",
				len(alerts), st.AlertCount())
		}
	}
	if err := writeExporters(hub, rate, eventsOut, chromeOut, !jsonOut); err != nil {
		return err
	}
	view := obs.Incidents(eng)
	if incOut != "" {
		doc, err := json.MarshalIndent(view, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(incOut, append(doc, '\n'), 0o644); err != nil {
			return err
		}
		if !jsonOut {
			fmt.Printf("forensics incident log written to %s\n", incOut)
		}
	}
	if jsonOut {
		report := struct {
			Dir       string               `json:"dir"`
			Window    string               `json:"window"`
			Replayed  int                  `json:"replayed_events"`
			OnRecord  int64                `json:"events_on_record"`
			Incidents []forensics.Incident `json:"incidents"`
			Alerts    []watch.Alert        `json:"alerts"`
			SLO       watch.SLOSummary     `json:"slo"`
		}{dir, window, replayed, st.EventCount(), view.Incidents, alerts, watcher.SLO()}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	for _, inc := range view.Incidents {
		fmt.Printf("incident %s  start=%d end=%d attempts=%d eradicated=%v\n",
			inc.IDHex, inc.Start, inc.End, inc.Attempts, inc.Eradicated)
	}
	return nil
}

// writeExporters dumps the captured event log in the requested formats.
func writeExporters(hub *telemetry.Hub, rate bus.Rate, eventsOut, chromeOut string, chatty bool) error {
	if eventsOut != "" {
		f, err := os.Create(eventsOut)
		if err != nil {
			return err
		}
		if err := hub.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if chatty {
			fmt.Printf("telemetry event stream (%d events) written to %s\n", hub.Len(), eventsOut)
		}
	}
	if chromeOut != "" {
		f, err := os.Create(chromeOut)
		if err != nil {
			return err
		}
		if err := hub.WriteChromeTrace(f, int64(rate)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if chatty {
			fmt.Printf("chrome trace written to %s (open in ui.perfetto.dev)\n", chromeOut)
		}
	}
	return nil
}

// writeJSONReport emits the scenario outcome as one JSON object: trace-level
// aggregates, the attacker's controller state (TEC/REC/bus-off), the
// defender's controller state, and the defense's core.Stats.
func writeJSONReport(w *os.File, attackKind string, attID, defID can.ID, rate bus.Rate,
	duration time.Duration, bits int, frames, destroyed int, load float64,
	att *attack.Attacker, defCtl *controller.Controller, defense *core.Defense) error {
	type ctlReport struct {
		Name       string `json:"name"`
		State      string `json:"state"`
		TEC        int    `json:"tec"`
		REC        int    `json:"rec"`
		TxAttempts int    `json:"tx_attempts"`
		TxSuccess  int    `json:"tx_success"`
		RxSuccess  int    `json:"rx_success"`
		ArbLosses  int    `json:"arbitration_losses"`
		BusOff     int    `json:"busoff_events"`
		Recoveries int    `json:"recoveries"`
	}
	ctl := func(c *controller.Controller) ctlReport {
		st := c.Stats()
		return ctlReport{
			Name:       c.Name(),
			State:      c.State().String(),
			TEC:        c.TEC(),
			REC:        c.REC(),
			TxAttempts: st.TxAttempts,
			TxSuccess:  st.TxSuccess,
			RxSuccess:  st.RxSuccess,
			ArbLosses:  st.ArbitrationLosses,
			BusOff:     st.BusOffEvents,
			Recoveries: st.Recoveries,
		}
	}
	report := struct {
		Attack     string      `json:"attack"`
		AttackID   string      `json:"attack_id,omitempty"`
		DefenderID string      `json:"defender_id"`
		Rate       int         `json:"rate_bits_per_second"`
		DurationMS float64     `json:"duration_ms"`
		Bits       int         `json:"bits"`
		Frames     int         `json:"frames"`
		Destroyed  int         `json:"destroyed_attempts"`
		BusLoad    float64     `json:"bus_load"`
		Outcome    string      `json:"outcome"`
		Attacker   *ctlReport  `json:"attacker,omitempty"`
		Defender   ctlReport   `json:"defender"`
		Defense    *core.Stats `json:"defense,omitempty"`
	}{
		Attack:     attackKind,
		DefenderID: defID.String(),
		Rate:       int(rate),
		DurationMS: float64(duration) / float64(time.Millisecond),
		Bits:       bits,
		Frames:     frames,
		Destroyed:  destroyed,
		BusLoad:    load,
		Outcome:    "no-attack",
		Defender:   ctl(defCtl),
	}
	if att != nil {
		report.AttackID = attID.String()
		a := ctl(att.Controller())
		report.Attacker = &a
		report.Outcome = "attacker " + a.State
		if a.BusOff > 0 {
			report.Outcome = fmt.Sprintf("attacker bus-off x%d, now %s", a.BusOff, a.State)
		}
	}
	if defense != nil {
		ds := defense.Stats()
		report.Defense = &ds
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
