package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestZeroProbeIsNoOp(t *testing.T) {
	var p Probe
	if p.Enabled() {
		t.Fatal("zero Probe reports enabled")
	}
	p.Emit(1, EvDetect, 5, 0) // must not panic
	var h *Hub
	if got := h.Probe("x"); got.Enabled() {
		t.Fatal("nil hub issued an enabled probe")
	}
	if h.Events() != nil || h.Len() != 0 || h.Registry() != nil {
		t.Fatal("nil hub not inert")
	}
	if err := h.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := h.WriteChromeTrace(&bytes.Buffer{}, 50_000); err != nil {
		t.Fatal(err)
	}
}

func TestProbeDedupeByName(t *testing.T) {
	h := NewHub()
	a := h.Probe("defender")
	b := h.Probe("defender")
	c := h.Probe("attacker")
	if a.node != b.node {
		t.Fatalf("same name produced distinct nodes: %d vs %d", a.node, b.node)
	}
	if a.node == c.node {
		t.Fatal("distinct names share a node")
	}
	if got := h.Nodes(); len(got) != 2 || got[0] != "defender" || got[1] != "attacker" {
		t.Fatalf("Nodes() = %v", got)
	}
}

func TestEmitFoldsMetrics(t *testing.T) {
	h := NewHub()
	p := h.Probe("michican")
	p.Emit(100, EvDetect, 5, 0)
	p.Emit(120, EvDetect, 9, 0)
	p.Emit(101, EvPullStart, 7, 0)
	p.Emit(108, EvPullEnd, 7, 0)
	p.Emit(130, EvError, 1, 1)
	p.Emit(131, EvError, 2, 0)
	p.Emit(132, EvTEC, 8, 0)
	p.Emit(133, EvBusOff, 0, 0)
	p.Emit(200, EvRecover, 0, 0)
	p.Emit(210, EvFFSpan, 64, 0)
	p.Emit(220, EvFFSpan, 32, 2)

	r := h.Registry()
	checks := []struct {
		name string
		want int64
	}{
		{"michican_detections_total", 2},
		{"michican_counterattacks_total", 1},
		{"michican_counterattack_bits_total", 7},
		{"michican_errors_total", 2},
		{"michican_frames_destroyed_total", 1},
		{"michican_busoff_total", 1},
		{"michican_recoveries_total", 1},
		{"michican_ff_idle_bits_total", 64},
		{"michican_ff_contend_bits_total", 32},
	}
	for _, c := range checks {
		if got := r.Counter(c.name, "node", "michican").Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if got := r.Gauge("michican_tec", "node", "michican").Value(); got != 8 {
		t.Errorf("tec gauge = %g, want 8", got)
	}
	s := r.Histogram("michican_detection_bits", "node", "michican").Summary()
	if s.N != 2 || s.Mean != 7 || s.Min != 5 || s.Max != 9 {
		t.Errorf("detection bits summary = %+v", s)
	}
	if h.Len() != 11 {
		t.Errorf("retained %d events, want 11", h.Len())
	}
}

func TestRetainEventsOff(t *testing.T) {
	h := NewHub()
	h.RetainEvents(false)
	p := h.Probe("n")
	p.Emit(1, EvDetect, 3, 0)
	if h.Len() != 0 {
		t.Fatalf("retained %d events with retention off", h.Len())
	}
	if got := h.Registry().Counter("michican_detections_total", "node", "n").Value(); got != 1 {
		t.Fatalf("metrics not folded with retention off: %d", got)
	}
}

func TestConcurrentEmit(t *testing.T) {
	h := NewHub()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := h.Probe("defender") // same name from every goroutine
			for i := 0; i < 1000; i++ {
				p.Emit(int64(i), EvDetect, int64(i%11+1), 0)
			}
		}(g)
	}
	wg.Wait()
	if h.Len() != 8000 {
		t.Fatalf("retained %d events, want 8000", h.Len())
	}
	if got := h.Registry().Counter("michican_detections_total", "node", "defender").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestWriteJSONL(t *testing.T) {
	h := NewHub()
	d := h.Probe("michican")
	a := h.Probe("attacker")
	d.Emit(100, EvDetect, 5, 0)
	d.Emit(101, EvPullStart, 7, 0)
	a.Emit(110, EvError, 1, 1)
	a.Emit(125, EvTEC, 8, 0)
	a.Emit(300, EvBusOff, 0, 0)

	var buf bytes.Buffer
	if err := h.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5", len(lines))
	}
	if lines[0]["event"] != "detect" || lines[0]["bit"] != float64(5) || lines[0]["node"] != "michican" {
		t.Errorf("detect line = %v", lines[0])
	}
	if lines[2]["kind"] != "bit" || lines[2]["role"] != "tx" {
		t.Errorf("error line = %v", lines[2])
	}
	if lines[3]["value"] != float64(8) || lines[3]["prev"] != float64(0) {
		t.Errorf("tec line = %v", lines[3])
	}
	// Bit-time ordering preserved.
	last := float64(-1)
	for i, m := range lines {
		tt := m["t"].(float64)
		if tt < last {
			t.Fatalf("line %d out of order: t=%g after %g", i, tt, last)
		}
		last = tt
	}
}

func TestWriteChromeTrace(t *testing.T) {
	h := NewHub()
	d := h.Probe("michican")
	a := h.Probe("attacker")
	d.Emit(100, EvDetect, 5, 0)
	d.Emit(101, EvPullStart, 7, 0)
	d.Emit(108, EvPullEnd, 7, 0)
	a.Emit(110, EvError, 1, 1)
	a.Emit(124, EvErrorEnd, 0, 0)
	a.Emit(124, EvTEC, 8, 0)
	a.Emit(300, EvBusOff, 0, 0)
	a.Emit(1708, EvRecover, 0, 0)
	h.Probe("bus").Emit(400, EvFFSpan, 128, 0)

	var buf bytes.Buffer
	if err := h.WriteChromeTrace(&buf, 50_000); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	var names []string
	spans := map[string]float64{}
	for _, ev := range doc.TraceEvents {
		name, _ := ev["name"].(string)
		names = append(names, name)
		if ev["ph"] == "X" {
			spans[name], _ = ev["dur"].(float64)
		}
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"process_name", "thread_name", "counterattack", "error(bit)", "bus-off", "idle-ff", "detect@bit5", "TEC"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q (have %s)", want, joined)
		}
	}
	// 7 pull bits at 50 kbit/s = 140 µs.
	if got := spans["counterattack"]; got < 139 || got > 141 {
		t.Errorf("counterattack span dur = %g µs, want 140", got)
	}
	// bus-off span: 1708-300 = 1408 bits = 28160 µs.
	if got := spans["bus-off"]; got < 28159 || got > 28161 {
		t.Errorf("bus-off span dur = %g µs, want 28160", got)
	}
	if got := spans["idle-ff"]; got < 2559 || got > 2561 {
		t.Errorf("idle-ff span dur = %g µs, want 2560", got)
	}
	if err := h.WriteChromeTrace(&buf, 0); err == nil {
		t.Error("rate 0 accepted")
	}
}

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("michican_detections_total", "node", "a").Add(3)
	r.Counter("michican_detections_total", "node", "b").Add(1)
	r.Gauge("michican_sim_bits_per_second").Set(1.25e8)
	r.Histogram("michican_detection_bits", "node", "a").Observe(5)
	r.Histogram("michican_detection_bits", "node", "a").Observe(9)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE michican_detections_total counter",
		`michican_detections_total{node="a"} 3`,
		`michican_detections_total{node="b"} 1`,
		"michican_sim_bits_per_second 125000000",
		`michican_detection_bits_count{node="a"} 2`,
		`michican_detection_bits_mean{node="a"} 7`,
		`michican_detection_bits_max{node="a"} 9`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot missing %q:\n%s", want, out)
		}
	}
	// Deterministic output: a second render must match exactly.
	var buf2 bytes.Buffer
	if err := r.WriteText(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("WriteText not deterministic")
	}
}

func TestMetricKeyLabelOrder(t *testing.T) {
	a := metricKey("m", []string{"b", "2", "a", "1"})
	b := metricKey("m", []string{"a", "1", "b", "2"})
	if a != b || a != `m{a="1",b="2"}` {
		t.Fatalf("metricKey unstable: %q vs %q", a, b)
	}
}

func BenchmarkProbeEmitDisabled(b *testing.B) {
	var p Probe
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Emit(int64(i), EvDetect, 5, 0)
	}
}

func BenchmarkProbeEmitEnabled(b *testing.B) {
	h := NewHub()
	h.RetainEvents(false)
	p := h.Probe("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Emit(int64(i), EvDetect, 5, 0)
	}
}
