package obs_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"michican/internal/fleet"
	"michican/internal/forensics"
	"michican/internal/obs"
	"michican/internal/store"
	"michican/internal/telemetry"
	"michican/internal/watch"
)

func TestAlertsEndpoint(t *testing.T) {
	hub := telemetry.NewHub()
	hub.RetainEvents(false)
	eng := forensics.NewEngine(hub)
	w := watch.New(hub, eng, watch.Config{})
	_ = w

	// A leaked campaign observed at finalize fires the frame-leak rule.
	emitFight(hub)
	eng.Finalize(500_000)

	srv, err := obs.Serve("127.0.0.1:0", hub, eng, obs.WithWatch(w))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv.URL()+"/alerts")
	if code != 200 {
		t.Fatalf("/alerts = %d", code)
	}
	var snap watch.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/alerts decode: %v", err)
	}
	if snap.Verdicts == 0 {
		t.Fatalf("watch engine saw no incident closures: %s", body)
	}

	// The watch SLO/alert series land on the same hub registry /metrics
	// already serves.
	_, body = get(t, srv.URL()+"/metrics")
	for _, name := range []string{
		"michican_slo_incidents_engaged_total",
		"michican_alert_transitions_total",
	} {
		if !strings.Contains(body, name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}
}

func TestAlertsEndpointWithoutWatch(t *testing.T) {
	srv, err := obs.Serve("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, srv.URL()+"/alerts")
	if code != 200 {
		t.Fatalf("/alerts without a watch engine = %d", code)
	}
	var snap watch.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if snap.Active == nil || snap.Log == nil || len(snap.Active) != 0 {
		t.Fatalf("empty snapshot shape: %s", body)
	}
}

func TestHealthzDegradesOnIssues(t *testing.T) {
	var backlog int64
	mon := &watch.Monitor{}
	mon.Attach(watch.StoreBacklogProbe(func() int64 { return backlog }, 100))

	srv, err := obs.Serve("127.0.0.1:0", nil, nil, obs.WithHealth(mon.Check))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if code, body := get(t, srv.URL()+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthy probe: %d %s", code, body)
	}
	backlog = 10_000
	code, body := get(t, srv.URL()+"/healthz")
	if code != 503 {
		t.Fatalf("degraded probe = %d, want 503: %s", code, body)
	}
	if !strings.Contains(body, "store-backlog") {
		t.Fatalf("degraded body should name the rule: %s", body)
	}
}

func TestFleetAlertsEmptyFleet(t *testing.T) {
	// An empty fleet with no collector wired: /fleet/alerts still serves a
	// well-formed empty view.
	f := fleet.New(fleet.Config{Workers: 1})
	srv, err := obs.ServeFleet("127.0.0.1:0", f)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv.URL()+"/fleet/alerts")
	if code != 200 {
		t.Fatalf("/fleet/alerts = %d", code)
	}
	var view watch.FleetAlertView
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if view.Vehicles == nil || len(view.Vehicles) != 0 || view.ActiveTotal != 0 {
		t.Fatalf("empty fleet view: %s", body)
	}

	// With a collector but zero registered vehicles the shape is the same.
	fc := watch.NewFleetCollector(nil)
	srv2, err := obs.ServeFleet("127.0.0.1:0", f,
		obs.WithFleetAlerts(func() watch.FleetAlertView { return fc.Snapshot(time.Now()) }))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	code, body = get(t, srv2.URL()+"/fleet/alerts")
	if code != 200 {
		t.Fatalf("/fleet/alerts with empty collector = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(view.Vehicles) != 0 {
		t.Fatalf("no vehicles expected: %s", body)
	}
}

func TestFleetHealthzDegradesOnStall(t *testing.T) {
	f := fleet.New(fleet.Config{Workers: 1})
	mon := &watch.Monitor{}
	stalled := false
	mon.Attach(func(time.Time) []watch.Issue {
		if !stalled {
			return nil
		}
		return []watch.Issue{{Rule: "worker-stall", Severity: "critical", Reason: "vehicle 3 stalled"}}
	})
	srv, err := obs.ServeFleet("127.0.0.1:0", f, obs.WithFleetHealth(mon.Check))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if code, _ := get(t, srv.URL()+"/fleet/healthz"); code != 200 {
		t.Fatalf("healthy fleet probe = %d", code)
	}
	stalled = true
	code, body := get(t, srv.URL()+"/fleet/healthz")
	if code != 503 || !strings.Contains(body, "worker-stall") {
		t.Fatalf("stalled fleet probe = %d: %s", code, body)
	}
	var h obs.FleetHealth
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if h.Status != "degraded" || len(h.Issues) != 1 {
		t.Fatalf("degraded payload: %+v", h)
	}
	if code, _ := get(t, srv.URL()+"/healthz"); code != 503 {
		t.Fatalf("plain /healthz should degrade too")
	}
}

// TestStoreWindowErrorPaths pins every malformed /store/window parameter
// combination to a 400.
func TestStoreWindowErrorPaths(t *testing.T) {
	hub := telemetry.NewHub()
	hub.RetainEvents(false)
	st, err := store.Create(t.TempDir(), store.Meta{Kind: "sim"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sink := store.NewSink(st, hub, store.SinkOptions{})
	emitFight(hub)
	if err := sink.Close(2000, true); err != nil {
		t.Fatal(err)
	}
	srv, err := obs.Serve("127.0.0.1:0", hub, nil, obs.WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, q := range []string{"from=x", "to=y", "from=10&to=abc", "from=-z"} {
		if code, _ := get(t, srv.URL()+"/store/window?"+q); code != 400 {
			t.Fatalf("/store/window?%s = %d, want 400", q, code)
		}
	}
}
