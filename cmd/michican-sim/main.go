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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"michican/internal/attack"
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/cli"
	"michican/internal/controller"
	"michican/internal/core"
	"michican/internal/experiment"
	"michican/internal/forensics"
	"michican/internal/obs"
	"michican/internal/restbus"
	"michican/internal/store"
	"michican/internal/telemetry"
	"michican/internal/trace"
	"michican/internal/watch"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "michican-sim:", err)
		os.Exit(1)
	}
}

// run is the whole command. A bad flag or -h exits as flag.ExitOnError
// does; every other failure is returned.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.SetOutput(stderr)
	// The scenario flags fill the generator config a -store run records.
	var p simParams
	fs.IntVar(&p.Rate, "rate", 50_000, "bus speed in bit/s")
	fs.StringVar(&p.Defender, "defender", "0x173", "defended ECU's CAN ID")
	fs.StringVar(&p.Attack, "attack", "spoof", "attack: spoof|dos|toggle|misc|none")
	fs.StringVar(&p.AttackID, "attack-id", "", "attacker CAN ID (default: defender for spoof, 0x064 for dos)")
	fs.BoolVar(&p.NoDefense, "no-defense", false, "leave the ECU unpatched")
	fs.BoolVar(&p.Restbus, "restbus", false, "replay Veh. D benign traffic")
	fs.StringVar(&p.MatrixFile, "matrix", "", "replay benign traffic from a communication-matrix file")
	fs.DurationVar(&p.Duration, "duration", 200*time.Millisecond, "simulation length")
	fs.BoolVar(&p.Watch, "watch", false, "attach the live SLO/alerting engine (serves /alerts under -http, persists the alert log under -store)")
	var (
		traceOut   = fs.String("trace", "", "write the raw bit trace to this file")
		eventsOut  = fs.String("events", "", "write the telemetry event stream (JSONL) to this file")
		chromeOut  = fs.String("chrome-trace", "", "write a Chrome trace_event JSON (Perfetto-viewable) to this file")
		jsonOut    = fs.Bool("json", false, "emit the outcome as one JSON object instead of text")
		httpAddr   = fs.String("http", "", "serve live observability (/metrics /incidents /snapshot /debug/pprof) on this address (use :0 for an ephemeral port)")
		linger     = fs.Duration("linger", 0, "keep the -http server up this long after the run (so probes and profilers can attach)")
		incOut     = fs.String("incidents", "", "write the forensics incident log (JSON, same shape as /incidents) to this file")
		storeDir   = fs.String("store", "", "persist the run into a durable store at this directory (segments + checkpoints, DESIGN.md §8)")
		resumeDir  = fs.String("resume", "", "resume an interrupted -store run from its last checkpoint (scenario flags come from the store)")
		replayWin  = fs.String("replay-window", "", "time-travel replay: re-open this bit-time window (from:to, either side open) from the -store directory instead of simulating; alerts regenerate for every rule except ladder-collapse, which needs the fast-forward spans the store does not keep")
		cpInterval = fs.Int64("checkpoint-interval", 1<<20, "bits of sim progress between automatic checkpoints under -store/-resume")
		verbose    = fs.Bool("v", false, "print every decoded bus event")
	)
	fs.Parse(args)

	if *replayWin != "" {
		dir := *storeDir
		if dir == "" {
			dir = *resumeDir
		}
		if dir == "" {
			return fmt.Errorf("-replay-window needs -store <dir> pointing at an existing store")
		}
		return runReplay(stdout, dir, *replayWin, *eventsOut, *chromeOut, *incOut, *jsonOut, *verbose)
	}
	if *storeDir != "" && *resumeDir != "" {
		return fmt.Errorf("-store creates a fresh run and -resume continues one; pick one")
	}

	// The scenario is built before a store is created or rewound, so a
	// scenario this build cannot run leaves no store behind and a resumable
	// one untouched.
	var sc *scenario
	build := func() (err error) {
		sc, err = newScenario(p, *verbose && !*jsonOut, stdout)
		return err
	}
	var (
		st       *store.Store
		sinkOpts = store.SinkOptions{CheckpointIntervalBits: *cpInterval}
		err      error
	)
	switch {
	case *resumeDir != "":
		// Resume rewinds the store to its newest checkpoint and replaces the
		// scenario flags with the parameters recorded at -store time, so the
		// regenerated run is bit-identical to the interrupted one.
		p = simParams{}
		st, sinkOpts, err = experiment.ResumeStore(*resumeDir, &p, sinkOpts, build)
		if errors.Is(err, experiment.ErrRunComplete) {
			return fmt.Errorf("resume %s: %w (replay it with -replay-window)", *resumeDir, err)
		}
		if err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "resuming from %s: %d events durable through bit %d\n",
				*resumeDir, sinkOpts.SkipEvents, sinkOpts.ResumeFromBits)
		}
	default:
		if err := build(); err != nil {
			return err
		}
		// Fresh -store runs record the scenario parameters as the store's
		// generator config — that is what -resume reads back to rebuild this
		// exact run.
		if *storeDir != "" {
			if st, err = experiment.CreateStore(*storeDir, store.Meta{Kind: "sim"}, p); err != nil {
				return err
			}
		}
	}

	// The telemetry stack is only built when an exporter asked for it, so
	// the default run pays nothing beyond the disabled-probe nil checks. The
	// bus registers its probe first and the nodes theirs after the stack's
	// watch probe: that order fixes the node IDs a stored run records. The
	// hub keeps every event only for the -events and -chrome-trace exporters.
	var stack *experiment.Stack
	if *eventsOut != "" || *chromeOut != "" || *httpAddr != "" || *incOut != "" || st != nil || p.Watch {
		hub := telemetry.NewHub()
		sc.bus.SetTelemetry(hub, "bus")
		stack = experiment.NewStack(hub, experiment.StackConfig{
			Forensics: *httpAddr != "" || *incOut != "" || st != nil || p.Watch,
			Watch:     p.Watch,
			Retain:    *eventsOut != "" || *chromeOut != "",
			Store:     st,
			Sink:      sinkOpts,
		})
		defer stack.Close()
		sc.setTelemetry(hub)
	}
	var server *obs.Server
	if *httpAddr != "" {
		if server, err = stack.Serve(*httpAddr); err != nil {
			return err
		}
		// The bound URL goes to stderr under -json so stdout stays one
		// machine-readable object.
		bannerTo := stdout
		if *jsonOut {
			bannerTo = stderr
		}
		fmt.Fprintf(bannerTo, "observability server listening on %s\n", server.URL())
	}
	if sc.att != nil && !*jsonOut {
		fmt.Fprintf(stdout, "attack: %s with ID %s against defender %s on a %v bus (defense: %v)\n",
			p.Attack, sc.attID, sc.defID, sc.rate, !p.NoDefense)
	}

	sc.bus.RunFor(p.Duration)
	if stack != nil {
		// Finalize durability: the incident log lands in the store, then the
		// final Completed checkpoint seals the run as resumable-no-more.
		if err := stack.Finalize(int64(sc.bus.Now())); err != nil {
			return err
		}
	}
	if st != nil && !*jsonOut {
		fmt.Fprintf(stdout, "durable store finalized at %s: %d events, %d incidents, %d alerts, %d KiB on disk\n",
			st.Dir(), st.EventCount(), st.IncidentCount(), st.AlertCount(), st.Stats().DiskBytes/1024)
	}

	rec := sc.rec
	events := trace.Decode(rec.Bits(), rec.Start())
	frames, errors := 0, 0
	for _, e := range events {
		if e.Kind == trace.FrameEvent {
			frames++
		} else {
			errors++
		}
		if *verbose && !*jsonOut {
			fmt.Fprintf(stdout, "t=%-8d %-5s %s (%d bits)\n", e.Start, e.Kind, e.ID, e.Bits())
		}
	}
	if *jsonOut {
		if err := writeJSONReport(stdout, p, sc, rec.Len(), frames, errors, trace.Load(events, int64(rec.Len()))); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stdout, "\nsimulated %v (%d bits): %d complete frames, %d destroyed attempts, bus load %.1f%%\n",
			p.Duration, rec.Len(), frames, errors, trace.Load(events, int64(rec.Len()))*100)
		if sc.att != nil {
			st := sc.att.Controller().Stats()
			fmt.Fprintf(stdout, "attacker: %d attempts, %d successes, %d bus-off events, state %v\n",
				st.TxAttempts, st.TxSuccess, st.BusOffEvents, sc.att.Controller().State())
		}
		if sc.defense != nil {
			ds := sc.defense.Stats()
			fmt.Fprintf(stdout, "defense: %d detections (mean position %.1f bits), %d counterattacks\n",
				ds.Detections, ds.MeanDetectionBits(), ds.Counterattacks)
		}
		if stack != nil && stack.Watch != nil {
			s := stack.Watch.SLO()
			fmt.Fprintf(stdout, "slo: %d engaged campaigns, detect p50/p99 %.0f/%.0f bits (%d violations), %d eradicated / %d failed, %d frames leaked, %d alert transitions\n",
				s.EngagedIncidents, s.DetectionP50Bits, s.DetectionP99Bits, s.DetectionViolations,
				s.Eradications, s.EradicationFailures, s.FramesLeaked, len(stack.Watch.Alerts()))
		}
	}
	if *traceOut != "" {
		bits := func(w io.Writer) error {
			_, err := io.WriteString(w, trace.FormatBits(rec.Bits(), 120))
			return err
		}
		if err := writeFile(stdout, *traceOut, !*jsonOut, bits, "raw bit trace written to %s (decode with candump)", *traceOut); err != nil {
			return err
		}
	}
	if stack != nil {
		if err := writeExporters(stdout, stack.Hub, sc.rate, *eventsOut, *chromeOut, !*jsonOut); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Fprintln(stdout, "\ntelemetry metrics:")
			if err := stack.Hub.Registry().WriteText(stdout); err != nil {
				return err
			}
		}
	}
	if *incOut != "" {
		if err := writeIncidents(stdout, *incOut, obs.Incidents(stack.Forensics), !*jsonOut); err != nil {
			return err
		}
	}
	if server != nil && *linger > 0 {
		if !*jsonOut {
			fmt.Fprintf(stdout, "lingering %v for probes on %s (Ctrl-C to stop)\n", *linger, server.URL())
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
	Rate       int           `json:"rate"`
	Defender   string        `json:"defender"`
	Attack     string        `json:"attack"`
	AttackID   string        `json:"attack_id,omitempty"`
	NoDefense  bool          `json:"no_defense,omitempty"`
	Restbus    bool          `json:"restbus,omitempty"`
	MatrixFile string        `json:"matrix_file,omitempty"`
	Duration   time.Duration `json:"duration_ns"`
	// Watch is part of the generator config because the alert log it
	// produces is persisted: a resumed run must re-attach the watch engine
	// to regenerate the same alert bytes.
	Watch bool `json:"watch,omitempty"`
}

// scenario is one run's bus and nodes, built from its parameters before any
// telemetry is wired.
type scenario struct {
	rate         bus.Rate
	defID, attID can.ID
	bus          *bus.Bus
	rec          *trace.Recorder
	defCtl       *controller.Controller
	defense      *core.Defense
	att          *attack.Attacker
	// nodes are the bus participants in attach order, which is also their
	// probe registration order.
	nodes []interface {
		bus.Node
		SetTelemetry(*telemetry.Hub)
	}
}

// newScenario parses the IDs and the attack kind, reads the matrix file,
// and builds the bus with the defended ECU, the optional restbus and the
// attacker attached. verbose prints each detection and counterattack to
// stdout as the run makes it.
func newScenario(p simParams, verbose bool, stdout io.Writer) (*scenario, error) {
	sc := &scenario{rate: bus.Rate(p.Rate)}
	var err error
	if sc.defID, err = cli.ParseID(p.Defender); err != nil {
		return nil, err
	}
	sc.attID = sc.defID
	if p.AttackID != "" {
		if sc.attID, err = cli.ParseID(p.AttackID); err != nil {
			return nil, err
		}
	} else if p.Attack == "dos" {
		sc.attID = 0x064
	}
	switch p.Attack {
	case "spoof":
		sc.att = attack.NewFabrication("attacker", sc.attID, []byte{0xDE, 0xAD, 0xBE, 0xEF}, 0)
	case "dos":
		sc.att = attack.NewTargetedDoS("attacker", sc.attID)
	case "toggle":
		sc.att = attack.NewToggling("attacker", sc.attID, sc.attID+1)
	case "misc":
		sc.att = attack.NewMiscellaneous("attacker", sc.attID, 500)
	case "none":
	default:
		return nil, fmt.Errorf("unknown attack %q", p.Attack)
	}

	sc.bus = bus.New(sc.rate)
	sc.rec = trace.NewRecorder()
	sc.bus.AttachTap(sc.rec)

	// Legitimate IDs: the defender plus optional restbus.
	ids := []can.ID{sc.defID}
	var benign *restbus.Matrix
	switch {
	case p.MatrixFile != "":
		f, err := os.Open(p.MatrixFile)
		if err != nil {
			return nil, err
		}
		benign, err = restbus.ParseMatrix(f)
		f.Close()
		if err != nil {
			return nil, err
		}
	case p.Restbus:
		benign = restbus.Buses(restbus.VehD)[0]
	}
	if benign != nil {
		filtered := &restbus.Matrix{Vehicle: benign.Vehicle, Bus: benign.Bus}
		for _, msg := range benign.Messages {
			if msg.ID != sc.defID && msg.ID != sc.attID {
				filtered.Messages = append(filtered.Messages, msg)
			}
		}
		ids = append(ids, filtered.IDs()...)
		sc.nodes = append(sc.nodes, restbus.NewReplayer("restbus", filtered, sc.rate, nil))
	}

	sc.defCtl = controller.New(controller.Config{Name: "defender", AutoRecover: true})
	if p.NoDefense {
		sc.nodes = append(sc.nodes, sc.defCtl)
	} else {
		sc.defense, err = core.NewFor(ids, sc.defID, core.Config{
			Name: "michican",
			OnDetect: func(t bus.BitTime, pos int) {
				if verbose {
					fmt.Fprintf(stdout, "t=%-8d DETECT at ID bit %d\n", t, pos)
				}
			},
			OnCounterattack: func(t bus.BitTime) {
				if verbose {
					fmt.Fprintf(stdout, "t=%-8d COUNTERATTACK (pull CAN_TX low, 7 bits)\n", t)
				}
			},
		})
		if err != nil {
			return nil, err
		}
		sc.nodes = append(sc.nodes, core.NewECU(sc.defCtl, sc.defense))
	}
	if sc.att != nil {
		sc.nodes = append(sc.nodes, sc.att)
	}
	for _, n := range sc.nodes {
		sc.bus.Attach(n)
	}
	return sc, nil
}

// setTelemetry wires the nodes to hub in attach order: restbus, defender,
// attacker.
func (sc *scenario) setTelemetry(hub *telemetry.Hub) {
	for _, n := range sc.nodes {
		n.SetTelemetry(hub)
	}
}

// runReplay is the time-travel path: no simulation runs. The stored event
// window streams through a fresh stack — the pipeline a live run uses — so
// every exporter (JSONL, Chrome trace, incident log) works on historical data,
// and a fresh forensics engine reconstructs the window's incidents. A fresh
// watch engine rides the same stream, so the window's SLO verdicts and alert
// transitions regenerate from history as the live run produced them — every
// rule except ladder-collapse, which folds fast-forward spans, and the store
// keeps none.
func runReplay(stdout io.Writer, dir, window, eventsOut, chromeOut, incOut string, jsonOut, verbose bool) error {
	from, to, err := store.ParseWindow(window)
	if err != nil {
		return err
	}
	replayed := 0
	cfg := experiment.StackConfig{Forensics: true, Watch: true, Retain: eventsOut != "" || chromeOut != ""}
	stack, err := experiment.ReplayStore(dir, from, to, cfg, func(ev telemetry.NamedEvent) {
		if verbose && !jsonOut {
			fmt.Fprintf(stdout, "t=%-8d %-10s %s a=%d b=%d\n", ev.Time, ev.Kind, ev.Node, ev.A, ev.B)
		}
		replayed++
	})
	if err != nil {
		return err
	}
	defer stack.Close()
	st := stack.Store

	// The recorded parameters carry the bus rate the Chrome trace needs to
	// convert bit times into wall time.
	rate := bus.Rate(50_000)
	var params simParams
	if len(st.Meta().Config) > 0 && json.Unmarshal(st.Meta().Config, &params) == nil && params.Rate > 0 {
		rate = bus.Rate(params.Rate)
	}

	watcher := stack.Watch
	alerts := watcher.Alerts()
	if !jsonOut {
		fmt.Fprintf(stdout, "replayed %d stored events from %s (window %s, %d on record)\n",
			replayed, dir, window, st.EventCount())
		if len(alerts) > 0 || st.AlertCount() > 0 {
			fmt.Fprintf(stdout, "alert replay: %d transitions regenerated (%d persisted in the store)\n",
				len(alerts), st.AlertCount())
		}
	}
	if err := writeExporters(stdout, stack.Hub, rate, eventsOut, chromeOut, !jsonOut); err != nil {
		return err
	}
	view := obs.Incidents(stack.Forensics)
	if incOut != "" {
		if err := writeIncidents(stdout, incOut, view, !jsonOut); err != nil {
			return err
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
		return writeJSON(stdout, report)
	}
	for _, inc := range view.Incidents {
		fmt.Fprintf(stdout, "incident %s  start=%d end=%d attempts=%d eradicated=%v\n",
			inc.IDHex, inc.Start, inc.End, inc.Attempts, inc.Eradicated)
	}
	return nil
}

// writeExporters dumps the captured event log in the requested formats.
func writeExporters(stdout io.Writer, hub *telemetry.Hub, rate bus.Rate, eventsOut, chromeOut string, chatty bool) error {
	if eventsOut != "" {
		if err := writeFile(stdout, eventsOut, chatty, hub.WriteJSONL,
			"telemetry event stream (%d events) written to %s", hub.Len(), eventsOut); err != nil {
			return err
		}
	}
	if chromeOut != "" {
		chrome := func(w io.Writer) error { return hub.WriteChromeTrace(w, int64(rate)) }
		return writeFile(stdout, chromeOut, chatty, chrome, "chrome trace written to %s (open in ui.perfetto.dev)", chromeOut)
	}
	return nil
}

// writeFile creates path and fills it with write; under chatty it then
// prints the note, formatted with args, on stdout.
func writeFile(stdout io.Writer, path string, chatty bool, write func(io.Writer) error, note string, args ...any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if chatty {
		fmt.Fprintf(stdout, note+"\n", args...)
	}
	return nil
}

// writeJSON writes v as one indented JSON document.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// writeIncidents writes the forensics incident log (the /incidents shape) to
// path.
func writeIncidents(stdout io.Writer, path string, view obs.IncidentsView, chatty bool) error {
	incidents := func(w io.Writer) error { return writeJSON(w, view) }
	return writeFile(stdout, path, chatty, incidents, "forensics incident log written to %s", path)
}

// writeJSONReport emits the scenario outcome as one JSON object: trace-level
// aggregates, the attacker's controller state (TEC/REC/bus-off), the
// defender's controller state, and the defense's core.Stats.
func writeJSONReport(w io.Writer, p simParams, sc *scenario, bits, frames, destroyed int, load float64) error {
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
		Attack:     p.Attack,
		DefenderID: sc.defID.String(),
		Rate:       int(sc.rate),
		DurationMS: float64(p.Duration) / float64(time.Millisecond),
		Bits:       bits,
		Frames:     frames,
		Destroyed:  destroyed,
		BusLoad:    load,
		Outcome:    "no-attack",
		Defender:   ctl(sc.defCtl),
	}
	if sc.att != nil {
		report.AttackID = sc.attID.String()
		a := ctl(sc.att.Controller())
		report.Attacker = &a
		report.Outcome = "attacker " + a.State
		if a.BusOff > 0 {
			report.Outcome = fmt.Sprintf("attacker bus-off x%d, now %s", a.BusOff, a.State)
		}
	}
	if sc.defense != nil {
		ds := sc.defense.Stats()
		report.Defense = &ds
	}
	return writeJSON(w, report)
}
