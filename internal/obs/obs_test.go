package obs_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/forensics"
	"michican/internal/obs"
	"michican/internal/restbus"
	"michican/internal/telemetry"
)

// emitFight pushes one destroyed spoof attempt through the hub so every
// endpoint has live data to serve.
func emitFight(hub *telemetry.Hub) {
	att := hub.Probe("attacker")
	def := hub.Probe("defender")
	att.Emit(100, telemetry.EvTxStart, 0x173, 0)
	def.Emit(112, telemetry.EvDetect, 9, 0)
	def.Emit(112, telemetry.EvPullStart, 0, 0)
	att.Emit(114, telemetry.EvError, int64(controller.BitError), 1)
	att.Emit(114, telemetry.EvTEC, 8, 0)
	def.Emit(120, telemetry.EvPullEnd, 7, 0)
	def.Emit(131, telemetry.EvErrorEnd, 0, 0)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeEndpoints(t *testing.T) {
	hub := telemetry.NewHub()
	hub.RetainEvents(false)
	eng := forensics.NewEngine(hub)
	defer eng.Close()
	emitFight(hub)
	eng.Finalize(2000)

	srv, err := obs.Serve("127.0.0.1:0", hub, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.Contains(srv.URL(), "127.0.0.1:") {
		t.Fatalf("URL = %q, want a bound ephemeral port", srv.URL())
	}

	if code, body := get(t, srv.URL()+"/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body := get(t, srv.URL()+"/metrics")
	if code != 200 {
		t.Errorf("/metrics = %d", code)
	}
	for _, want := range []string{
		`michican_detections_total{node="defender"} 1`,
		`michican_tec{node="attacker"} 8`,
		"# TYPE michican_detections_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, srv.URL()+"/incidents")
	if code != 200 {
		t.Fatalf("/incidents = %d", code)
	}
	var iv obs.IncidentsView
	if err := json.Unmarshal([]byte(body), &iv); err != nil {
		t.Fatalf("/incidents not JSON: %v\n%s", err, body)
	}
	if len(iv.Incidents) != 1 || iv.Incidents[0].IDHex != "0x173" || iv.Incidents[0].Attempts != 1 {
		t.Errorf("/incidents = %+v", iv.Incidents)
	}
	if len(iv.InFlight) != 1 || len(iv.Summaries) != 1 {
		t.Errorf("in-flight/summaries = %+v / %+v", iv.InFlight, iv.Summaries)
	}
	if !iv.Engine.Finalized || iv.Engine.RecordingEnd != 2000 {
		t.Errorf("engine stats = %+v", iv.Engine)
	}

	code, body = get(t, srv.URL()+"/snapshot")
	if code != 200 {
		t.Fatalf("/snapshot = %d", code)
	}
	var sv obs.SnapshotView
	if err := json.Unmarshal([]byte(body), &sv); err != nil {
		t.Fatalf("/snapshot not JSON: %v\n%s", err, body)
	}
	byName := map[string]obs.NodeSnapshot{}
	for _, n := range sv.Nodes {
		byName[n.Name] = n
	}
	if a := byName["attacker"]; a.TEC != 8 || a.State != "error-active" || a.Errors != 1 {
		t.Errorf("attacker snapshot = %+v", a)
	}
	if d := byName["defender"]; d.Detections != 1 || d.State != "error-active" {
		t.Errorf("defender snapshot = %+v", d)
	}

	if code, body := get(t, srv.URL()+"/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d %q", code, body)
	}
	if code, body := get(t, srv.URL()+"/"); code != 200 || !strings.Contains(body, "/incidents") {
		t.Errorf("index = %d %q", code, body)
	}
	if code, _ := get(t, srv.URL()+"/no-such-page"); code != 404 {
		t.Errorf("unknown path = %d, want 404", code)
	}
}

// TestServeNilComponents checks the server stays serviceable with no hub or
// engine attached (michican-bench -http before any grid cell wires one).
func TestServeNilComponents(t *testing.T) {
	srv, err := obs.Serve("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _ := get(t, srv.URL()+"/metrics"); code != 200 {
		t.Errorf("/metrics = %d", code)
	}
	code, body := get(t, srv.URL()+"/incidents")
	if code != 200 {
		t.Fatalf("/incidents = %d", code)
	}
	var iv obs.IncidentsView
	if err := json.Unmarshal([]byte(body), &iv); err != nil {
		t.Fatalf("/incidents not JSON: %v", err)
	}
	if iv.Incidents == nil || iv.InFlight == nil || iv.Summaries == nil {
		t.Errorf("nil-engine incident document has null arrays: %s", body)
	}
	if code, _ := get(t, srv.URL()+"/snapshot"); code != 200 {
		t.Errorf("/snapshot = %d", code)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := obs.Serve("256.256.256.256:99999", nil, nil); err == nil {
		t.Fatal("invalid address accepted")
	}
}

// TestSnapshotFastPaths runs a bus on a harmonic restbus schedule the splice
// rung carries, then checks /snapshot reports every rung of the ladder from
// the process-wide bus counters.
func TestSnapshotFastPaths(t *testing.T) {
	m := &restbus.Matrix{Vehicle: "obs", Bus: "harmonic"}
	for i, id := range []can.ID{0x100, 0x200, 0x300} {
		m.Messages = append(m.Messages, restbus.Message{
			ID:          id,
			Transmitter: fmt.Sprintf("ecu-%d", i),
			DLC:         i + 1,
			Period:      time.Duration(5<<i) * time.Millisecond,
		})
	}
	bb := bus.New(bus.Rate50k)
	bb.Attach(restbus.NewReplayer("restbus", m, bus.Rate50k, rand.New(rand.NewSource(11))))
	bb.Attach(controller.New(controller.Config{Name: "rx", AutoRecover: true}))
	bb.Run(700_000)
	if bb.SpliceForwardedBits() == 0 {
		t.Fatal("the splice rung never engaged")
	}

	srv, err := obs.Serve("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, srv.URL()+"/snapshot")
	if code != 200 {
		t.Fatalf("/snapshot = %d", code)
	}
	var doc struct {
		FastPaths map[string]float64 `json:"fast_paths"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/snapshot not JSON: %v\n%s", err, body)
	}
	fp := doc.FastPaths
	for _, rung := range []string{"idle", "contend", "splice"} {
		if _, ok := fp[rung+"_bits"]; !ok {
			t.Errorf("%s_bits missing from /snapshot", rung)
		}
		rate, ok := fp[rung+"_hit_rate"]
		if !ok || rate < 0 || rate > 1 {
			t.Errorf("%s_hit_rate = %v (present %v), want within [0, 1]", rung, rate, ok)
		}
	}
	if _, ok := fp["frame_bits"]; ok {
		t.Error("/snapshot still reports the deleted frame rung")
	}
	// The process-wide counters only grow, so the snapshot holds at least
	// what this bus carried.
	if got := int64(fp["splice_bits"]); got < bb.SpliceForwardedBits() {
		t.Errorf("splice_bits = %d, below this bus's %d", got, bb.SpliceForwardedBits())
	}
	if fp["splice_hit_rate"] == 0 {
		t.Errorf("splice_hit_rate = 0 after a run the splice rung carried")
	}
}
