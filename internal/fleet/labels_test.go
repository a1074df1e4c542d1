package fleet

import (
	"context"
	"runtime/pprof"
	"testing"

	"michican/internal/forensics"
	"michican/internal/telemetry"
)

// idleVehicle is the least Vehicle Add accepts; it never advances.
type idleVehicle struct {
	id  int
	hub *telemetry.Hub
}

func (v *idleVehicle) ID() int                             { return v.id }
func (v *idleVehicle) Advance(int64)                       {}
func (v *idleVehicle) Now() int64                          { return 0 }
func (v *idleVehicle) HorizonBits() int64                  { return 0 }
func (v *idleVehicle) Hub() *telemetry.Hub                 { return v.hub }
func (v *idleVehicle) LiveIncidents() []forensics.Incident { return nil }
func (v *idleVehicle) Finalize() []forensics.Incident      { return nil }
func (v *idleVehicle) Describe() string                    { return "idle" }

// TestShardLabelsBuiltAtPlacement checks that Add builds each shard's
// profile labels once, naming its worker and vehicle, and that switching to
// them before a slice allocates nothing.
func TestShardLabelsBuiltAtPlacement(t *testing.T) {
	f := New(Config{Workers: 2})
	for id := 0; id < 3; id++ {
		if err := f.Add(&idleVehicle{id: id, hub: telemetry.NewHub()}); err != nil {
			t.Fatal(err)
		}
	}
	// Round-robin placement puts the third vehicle on worker 0.
	s := f.byID[2]
	if got, _ := pprof.Label(s.labels, "vehicle"); got != "2" {
		t.Errorf(`label "vehicle" = %q, want "2"`, got)
	}
	if got, _ := pprof.Label(s.labels, "fleet-worker"); got != "0" {
		t.Errorf(`label "fleet-worker" = %q, want "0"`, got)
	}
	defer pprof.SetGoroutineLabels(context.Background())
	if n := testing.AllocsPerRun(100, func() { pprof.SetGoroutineLabels(s.labels) }); n != 0 {
		t.Errorf("per-step labelling made %.0f allocations, want 0", n)
	}
}
