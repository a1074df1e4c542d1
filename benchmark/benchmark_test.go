package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"michican/internal/store"
	"michican/internal/telemetry"
)

// tinyScale shrinks every workload to well under a second.
var tinyScale = scale{
	FSMs:              2000,
	SweepPerN:         20,
	Vehicles:          4,
	HorizonBits:       4 * sliceBits,
	CheckpointBits:    sliceBits,
	CrashBits:         2*sliceBits + sliceBits/2,
	WindowsPerVehicle: 2,
	WindowBits:        20_000,
	BenignHalfBits:    200_000,
	ThinkTime:         time.Millisecond,
}

func TestSmokeAllWorkloads(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	traceDir := t.TempDir()
	ids := map[string]identity{}
	for _, w := range workloads {
		rep, err := runWorkload(runOpts{workload: w.name, seed: 1, sc: tinyScale, trace: true, traceDir: traceDir})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct || rep.Attempted == 0 {
			t.Fatalf("%s: correct=%v attempted=%d failures=%v", w.name, rep.Correct, rep.Attempted, rep.Failures)
		}
		for _, d := range endToEnd {
			if v := rep.Metrics[d.Name]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, v)
			}
		}
		var sum float64
		for k, v := range rep.Layers {
			if strings.HasSuffix(k, "cpu_share") {
				sum += v
			}
		}
		if math.Abs(sum-100) > 1 {
			t.Errorf("%s: cpu shares sum to %.2f%%, want 100", w.name, sum)
		}
		for _, f := range []string{w.name + ".pprof", w.name + ".spans.json"} {
			if _, err := os.Stat(filepath.Join(traceDir, f)); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
		ids[w.name] = rep.Identity
	}
	// The crash-resume run must land byte-identical to the uninterrupted one.
	if err := sameRoster(ids["fleet-resume"].Vehicles, ids["fleet-attacked"].Vehicles); err != nil {
		t.Errorf("fleet-resume differs from fleet-attacked: %v", err)
	}
	for _, v := range append(ids["fleet-attacked"].Vehicles, ids["vehicle-benign"].Vehicles...) {
		if v.StreamEvents == 0 || v.StreamHash == "" {
			t.Errorf("vehicle %d: no persisted-stream digest", v.Vehicle)
		}
	}
}

// TestStreamDigest checks that the persisted-stream digest ignores the
// fast-forward span records and nothing else.
func TestStreamDigest(t *testing.T) {
	events := []telemetry.Event{
		{Time: 10, Kind: telemetry.EvTxStart, A: 0x123},
		{Time: 12, Kind: telemetry.EvFFSpan, A: 40, B: 3},
		{Time: 52, Kind: telemetry.EvArbWon, A: 0x123},
		{Time: 60, Kind: telemetry.EvTxSuccess, A: 0x123},
	}
	digest := func(evs []telemetry.Event) string {
		dir := filepath.Join(t.TempDir(), "store")
		st, err := store.Create(dir, store.Meta{Kind: "vehicle"})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if err := st.AppendEvent(telemetry.AppendEventJSON(nil, "ecu", ev), ev.Time); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		n, h, err := streamDigest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("digest covered %d events, want 3", n)
		}
		return h
	}
	base := digest(events)
	respanned := slices.Clone(events)
	respanned[1] = telemetry.Event{Time: 12, Kind: telemetry.EvFFSpan, A: 40, B: 4}
	if got := digest(respanned); got != base {
		t.Errorf("changing a span record changed the digest")
	}
	altered := slices.Clone(events)
	altered[2].A = 0x124
	swapped := slices.Clone(events)
	swapped[2], swapped[3] = swapped[3], swapped[2]
	for name, evs := range map[string][]telemetry.Event{"altered": altered, "reordered": swapped} {
		if got := digest(evs); got == base {
			t.Errorf("%s stream has the same digest", name)
		}
	}
}

// TestSchemaMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics the
// command emits from drifting apart.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for i, w := range spec.Workloads {
		names = append(names, w.Name)
		if i < len(workloads) && w.Why != workloads[i].why {
			t.Errorf("workload %s: BENCHMARK.json why %q, code %q", w.Name, w.Why, workloads[i].why)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames())
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the code:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayerDefs()) {
		want, _ := json.Marshal(perLayerDefs())
		t.Errorf("BENCHMARK.json per_layer differs from the code; want %s", want)
	}

	// The result line carries exactly the listed metrics, by name and unit.
	for _, traced := range []bool{false, true} {
		rep := &runReport{Correct: true, Attempted: 1, Metrics: map[string]float64{}, Layers: map[string]float64{}}
		var out bytes.Buffer
		if err := printResult(rep, traced, &out, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		defs := spec.EndToEnd
		if traced {
			defs = spec.PerLayer
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("traced=%v: result line has %d metrics, BENCHMARK.json lists %d", traced, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s missing or with unit %q, want %q", traced, d.Name, m.Unit, d.Unit)
			}
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1000, 99}, {200, 95}, {128, 92}, {100, 90}, {40, 75}, {20, 0}, {5, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	v := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(v, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", v, c.q, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	wall := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	tight := summary{Median: 10, Q1: 9.9, Q3: 10.1, Min: 9.8, Max: 10.2}
	for _, c := range []struct {
		b    summary
		want string
	}{
		{summary{Median: 10.05, Q1: 10, Q3: 10.1, Min: 9.9, Max: 10.2}, "within bound"},
		{summary{Median: 12, Q1: 11.9, Q3: 12.1, Min: 11.8, Max: 12.2}, "worse"},
		{summary{Median: 9, Q1: 8.9, Q3: 9.1, Min: 8.8, Max: 9.2}, "better"},
		{summary{Median: 10, Q1: 8, Q3: 12, Min: 7, Max: 13}, "unresolved"},
	} {
		if got, _ := verdict(wall, tight, c.b); got != c.want {
			t.Errorf("verdict(%+v) = %s, want %s", c.b, got, c.want)
		}
	}
	// A shift past a near-constant count's tiny spread, with the ranges
	// overlapping, is noise, not a gain.
	allocs := metricDef{Name: "allocs_per_rep", Better: "lower", Bound: 0.05}
	exact := summary{Median: 1000, Q1: 999.9, Q3: 1000.1, Min: 999.8, Max: 1000.2}
	shifted := summary{Median: 999, Q1: 995, Q3: 1001, Min: 990, Max: 1003}
	if got, _ := verdict(allocs, exact, shifted); got != "within bound" {
		t.Errorf("verdict on overlapping ranges = %s, want within bound", got)
	}
}
