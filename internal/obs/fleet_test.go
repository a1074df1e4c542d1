package obs_test

import (
	"encoding/json"
	"strings"
	"testing"

	"michican/internal/experiment"
	"michican/internal/fleet"
	"michican/internal/obs"
)

// startFleet runs a tiny fleet to completion and returns it still served, so
// the endpoints exercise the retired-vehicle paths as well as the live ones.
func startFleet(t *testing.T) (*fleet.Fleet, *obs.Server) {
	t.Helper()
	f := fleet.New(fleet.Config{Workers: 2})
	for i := 0; i < 3; i++ {
		v, err := experiment.NewFleetVehicle(experiment.FleetSpecAt(7, i, 200_000, false))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	server, err := obs.ServeFleet("127.0.0.1:0", f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	f.Start()
	f.Wait()
	f.Stop()
	return f, server
}

func TestFleetEndpoints(t *testing.T) {
	f, server := startFleet(t)

	code, body := get(t, server.URL()+"/fleet/healthz")
	if code != 200 {
		t.Fatalf("/fleet/healthz = %d", code)
	}
	var health obs.FleetHealth
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	if health.Status != "ok" || health.Completed != 3 || health.Workers != 2 {
		t.Fatalf("healthz payload: %+v", health)
	}

	code, body = get(t, server.URL()+"/fleet/metrics")
	if code != 200 {
		t.Fatalf("/fleet/metrics = %d", code)
	}
	for _, want := range []string{
		"michican_fleet_sim_bits_total 600000",
		"michican_fleet_commit_calls_total",
		"michican_fleet_logical_updates_total",
		"michican_fleet_queries_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/fleet/metrics missing %q", want)
		}
	}

	code, body = get(t, server.URL()+"/fleet/incidents")
	if code != 200 {
		t.Fatalf("/fleet/incidents = %d", code)
	}
	var inc fleet.IncidentsView
	if err := json.Unmarshal([]byte(body), &inc); err != nil {
		t.Fatalf("incidents decode: %v", err)
	}
	if inc.Totals.Incidents != int64(len(inc.Recent)) {
		t.Fatalf("incident totals %d != recent %d", inc.Totals.Incidents, len(inc.Recent))
	}

	code, body = get(t, server.URL()+"/fleet/vehicles")
	if code != 200 {
		t.Fatalf("/fleet/vehicles = %d", code)
	}
	var census []fleet.VehicleInfo
	if err := json.Unmarshal([]byte(body), &census); err != nil {
		t.Fatalf("vehicles decode: %v", err)
	}
	if len(census) != 3 {
		t.Fatalf("census has %d vehicles, want 3", len(census))
	}

	code, body = get(t, server.URL()+"/fleet/vehicles/0/snapshot")
	if code != 200 {
		t.Fatalf("/fleet/vehicles/0/snapshot = %d", code)
	}
	var snap fleet.VehicleSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("snapshot decode: %v", err)
	}
	if snap.ID != 0 || !snap.Done {
		t.Fatalf("snapshot payload: %+v", snap.VehicleInfo)
	}

	if code, _ := get(t, server.URL()+"/fleet/vehicles/42/snapshot"); code != 404 {
		t.Fatalf("unknown vehicle snapshot = %d, want 404", code)
	}
	if code, _ := get(t, server.URL()+"/fleet/vehicles/zzz/snapshot"); code != 400 {
		t.Fatalf("malformed vehicle id = %d, want 400", code)
	}
	if code, _ := get(t, server.URL()+"/healthz"); code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
	_ = f
}
