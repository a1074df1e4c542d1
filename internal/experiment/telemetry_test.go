package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"
	"time"

	"michican/internal/controller"
	"michican/internal/telemetry"
)

// TestTelemetryDifferential re-runs Table-II scenarios with a fully wired,
// event-retaining hub and requires the recorder bit stream and the decoded
// rows to be identical to the uninstrumented run — telemetry observes the
// simulation, it never steers it. Both stepping regimes are covered, since
// emit points sit on the exact path and on the batch fast paths.
func TestTelemetryDifferential(t *testing.T) {
	for _, spec := range table2Specs() {
		for _, mode := range []SteppingMode{ModeSpliceFF, ModeExact} {
			plain := goldenCfg(1).Defaults()
			plain.Mode = mode
			plainRows, plainTB, err := runTable2Scenario(plain, spec)
			if err != nil {
				t.Fatalf("exp %d %s plain: %v", spec.exp, mode, err)
			}

			wired := goldenCfg(1).Defaults()
			wired.Mode = mode
			wired.Hub = telemetry.NewHub()
			wiredRows, wiredTB, err := runTable2Scenario(wired, spec)
			if err != nil {
				t.Fatalf("exp %d %s wired: %v", spec.exp, mode, err)
			}

			if !reflect.DeepEqual(plainTB.recorder.Bits(), wiredTB.recorder.Bits()) {
				t.Fatalf("exp %d %s: telemetry changed the bit stream (len %d vs %d)",
					spec.exp, mode, plainTB.recorder.Len(), wiredTB.recorder.Len())
			}
			if !reflect.DeepEqual(plainRows, wiredRows) {
				t.Errorf("exp %d %s: rows differ:\nplain: %+v\nwired: %+v",
					spec.exp, mode, plainRows, wiredRows)
			}
			if wired.Hub.Len() == 0 {
				t.Errorf("exp %d %s: wired hub captured no events", spec.exp, mode)
			}
		}
	}
}

// TestTelemetryCountersMatchControllers cross-checks the folded metrics
// against the simulation's own ground truth: in the Experiment-1 spoof
// scenario the defense core's detection/pull counts must agree with
// core.Stats, and there and in Fig. 6 every controller's TEC gauge and
// bus-off counter, the attackers' included, must agree with the controller.
func TestTelemetryCountersMatchControllers(t *testing.T) {
	spec := table2Specs()[0] // Exp 1: spoof 0x173 with restbus
	cfg := goldenCfg(1).Defaults()
	cfg.Hub = telemetry.NewHub()
	_, tb, err := runTable2Scenario(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	ds := tb.defense.Stats()
	reg := cfg.Hub.Registry()
	if got := reg.Counter("michican_detections_total", "node", tb.defense.Name()).Value(); got != int64(ds.Detections) {
		t.Errorf("detections counter = %d, core.Stats says %d", got, ds.Detections)
	}
	if got := reg.Counter("michican_counterattacks_total", "node", tb.defense.Name()).Value(); got != int64(ds.Counterattacks) {
		t.Errorf("pulls counter = %d, core.Stats says %d", got, ds.Counterattacks)
	}

	_, fig6, err := fig6Scenario(Config{Seed: 1, Hub: telemetry.NewHub()})
	if err != nil {
		t.Fatal(err)
	}
	for name, tb := range map[string]*defendedBus{"exp 1": tb, "fig 6": fig6} {
		reg := tb.hub.Registry()
		ctls := []*controller.Controller{tb.defender}
		for _, a := range tb.attackers {
			ctls = append(ctls, a.Controller())
		}
		for _, c := range ctls {
			if got := reg.Gauge("michican_tec", "node", c.Name()).Value(); got != float64(c.TEC()) {
				t.Errorf("%s: %s TEC gauge = %v, controller says %d", name, c.Name(), got, c.TEC())
			}
			if got := reg.Counter("michican_busoff_total", "node", c.Name()).Value(); got != int64(c.Stats().BusOffEvents) {
				t.Errorf("%s: %s bus-off counter = %d, controller says %d", name, c.Name(), got, c.Stats().BusOffEvents)
			}
		}
	}
}

// TestProbeOrderPinned pins the node IDs every recorded stream carries: the
// defended bus registers its probes in attach order (bus, defender
// controller, defense, restbus, attackers), and a watched fleet vehicle's
// watch engine registers last.
func TestProbeOrderPinned(t *testing.T) {
	check := func(what string, got []string, want ...string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Errorf("%s registers nodes %q, want %q", what, got, want)
		}
	}
	v, err := NewFleetVehicle(FleetVehicleSpec{Load: 0.30, Attack: FleetAttackSpoof, Watch: true})
	if err != nil {
		t.Fatal(err)
	}
	check("a watched spoof vehicle", v.Hub().Nodes(), "bus", "defender", "michican", "restbus", "attacker", "watch")

	cfg := goldenCfg(1).Defaults()
	cfg.Hub = telemetry.NewHub()
	if _, _, err := runTable2Scenario(cfg, table2Specs()[0]); err != nil {
		t.Fatal(err)
	}
	check("Table II experiment 1", cfg.Hub.Nodes(), "bus", "defender", "michican", "restbus", "attacker")

	hub := telemetry.NewHub()
	if _, err := newDefendedBus(throughputSpec(0.30, ModeContendFF, 1, hub)); err != nil {
		t.Fatal(err)
	}
	check("the throughput scenario", hub.Nodes(), "bus", "defender", "michican", "restbus")
}

// TestHubMetricsReproducible runs Table II twice into a fresh hub each time,
// with a two-worker pool asked for, and requires the two metric snapshots to
// be byte-identical: a shared hub's gauges keep the last write and its float
// folds depend on the order of adds, so trials must not interleave on it.
func TestHubMetricsReproducible(t *testing.T) {
	snapshot := func() string {
		cfg := goldenCfg(1)
		cfg.Duration = 200 * time.Millisecond
		cfg.Workers = 2
		cfg.Hub = telemetry.NewHub()
		if _, err := Table2(cfg); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := cfg.Hub.Registry().WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := snapshot(), snapshot(); a != b {
		t.Errorf("two runs of Table II with a hub gave different metrics:\n%s\nvs\n%s", a, b)
	}
}

// TestTelemetryIntegrationSpoof drives the Experiment-1 spoof scenario with
// a retained hub and validates the exported artifacts: the JSONL stream is
// valid line-JSON in non-decreasing bit-time order containing the full
// detect → pull → error → bus-off narrative, and the Chrome trace is a
// well-formed trace_event document with one named track per node.
func TestTelemetryIntegrationSpoof(t *testing.T) {
	cfg := goldenCfg(1).Defaults()
	cfg.Hub = telemetry.NewHub()
	if _, _, err := runTable2Scenario(cfg, table2Specs()[0]); err != nil {
		t.Fatal(err)
	}

	var jsonl bytes.Buffer
	if err := cfg.Hub.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	lastT := int64(-1)
	sc := bufio.NewScanner(&jsonl)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
		var ev struct {
			T     int64  `json:"t"`
			Node  string `json:"node"`
			Event string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v (%s)", lines, err, sc.Text())
		}
		if ev.T < lastT {
			t.Fatalf("line %d: time %d after %d — stream out of bit-time order", lines, ev.T, lastT)
		}
		lastT = ev.T
		if ev.Node == "" || ev.Event == "" {
			t.Fatalf("line %d: missing node/event: %s", lines, sc.Text())
		}
		kinds[ev.Event]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != cfg.Hub.Len() {
		t.Errorf("JSONL lines = %d, hub has %d events", lines, cfg.Hub.Len())
	}
	for _, want := range []string{"detect", "pull_start", "pull_end", "error", "error_end", "tec", "bus_off", "recover", "arb_won"} {
		if kinds[want] == 0 {
			t.Errorf("spoof run emitted no %q events (kinds: %v)", want, kinds)
		}
	}
	// Every pull has exactly one start and one end.
	if kinds["pull_start"] != kinds["pull_end"] {
		t.Errorf("pull_start=%d, pull_end=%d — unpaired pulls", kinds["pull_start"], kinds["pull_end"])
	}

	var chrome bytes.Buffer
	if err := cfg.Hub.WriteChromeTrace(&chrome, 50_000); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	tracks := map[string]bool{}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Name == "thread_name" {
			tracks[ev.Args["name"].(string)] = true
		}
		if ev.Ph == "X" {
			spans++
			if ev.Dur <= 0 {
				t.Errorf("span %q has non-positive duration %v", ev.Name, ev.Dur)
			}
		}
	}
	for _, node := range []string{"bus", "defender", "michican", "attacker", "restbus"} {
		if !tracks[node] {
			t.Errorf("chrome trace missing a track for %q (tracks: %v)", node, tracks)
		}
	}
	if spans == 0 {
		t.Error("chrome trace has no spans")
	}
}

// BenchmarkContendFFTelemetry measures the contend-ff scenario with the
// telemetry layer disabled (zero probes, one nil check per emit site) and
// with a metrics-only hub — the numbers behind the <2% disabled-path claim
// and the CI overhead guard.
func BenchmarkContendFFTelemetry(b *testing.B) {
	for _, mode := range []struct {
		name string
		hub  func() *telemetry.Hub
	}{
		{"off", func() *telemetry.Hub { return nil }},
		{"on", func() *telemetry.Hub {
			h := telemetry.NewHub()
			h.RetainEvents(false)
			return h
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			tb, err := newDefendedBus(throughputSpec(0.30, ModeContendFF, 1, mode.hub()))
			if err != nil {
				b.Fatal(err)
			}
			bb := tb.bus
			bb.Run(100_000) // warm-up
			const bitsPerOp = 10_000
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bb.Run(bitsPerOp)
			}
			b.SetBytes(bitsPerOp)
		})
	}
}
