package fleet_test

import (
	"fmt"
	"reflect"
	"testing"

	"michican/internal/controller"
	"michican/internal/experiment"
	"michican/internal/fleet"
)

// These tests pin the fleet-facing contract of the shared compiled-plan
// cache: sharing is a pure memory/compile-time optimization, so every
// vehicle's wire trace and incident log must be bit-identical with the cache
// on and off, including across a mid-run Remove of a vehicle whose
// controllers reference the shared plans, and the published plans and
// rolling payloads must come out of the run unwritten.

// runSharedCacheArm builds n recorded vehicles, each resolving plans through
// the source plans returns for it (a fresh one per vehicle is the private
// arm: a nil source would be filled by the fleet's own), runs the fleet to
// drain, and returns per-vehicle outcomes.
// When removeIdx is non-negative, that vehicle is built horizon-less and
// removed right after Start, so its retirement races the workers — the
// shared-nothing sharding must keep every other vehicle unaffected.
func runSharedCacheArm(t *testing.T, n int, plans func() *controller.PlanSource, removeIdx int) map[int]vehicleTrace {
	t.Helper()
	f := fleet.New(fleet.Config{Workers: 2})
	vehicles := make(map[int]*experiment.FleetVehicle, n)
	for i := 0; i < n; i++ {
		horizon := int64(testHorizon)
		if i == removeIdx {
			horizon = 0 // runs until removed
		}
		spec := experiment.FleetSpecAt(testSeed, i, horizon, true)
		spec.Plans = plans()
		v, err := experiment.NewFleetVehicle(spec)
		if err != nil {
			t.Fatalf("build vehicle %d: %v", i, err)
		}
		vehicles[i] = v
		if err := f.Add(v); err != nil {
			t.Fatalf("add vehicle %d: %v", i, err)
		}
	}
	f.Start()
	if removeIdx >= 0 {
		if !f.Remove(vehicles[removeIdx].ID()) {
			t.Fatalf("Remove(vehicle %d) = false", removeIdx)
		}
	}
	f.Wait()
	f.Stop()

	out := make(map[int]vehicleTrace, n)
	for id, v := range vehicles {
		if id == removeIdx {
			continue // its trace length races the removal; survivors are the subject
		}
		out[id] = vehicleTrace{
			bits:      fmt.Sprint(v.Recorder().Bits()),
			incidents: v.Finalize(),
		}
	}
	return out
}

// TestFleetDeterminismSharedPlanCache is the acceptance gate for the shared
// cache: the same vehicle population must produce bit-identical per-vehicle
// traces and incident logs with plans resolved privately and through one
// fleet-shared source — and the source must actually have been exercised.
func TestFleetDeterminismSharedPlanCache(t *testing.T) {
	const n = 5
	private := runSharedCacheArm(t, n, controller.NewPlanSource, -1)
	src := controller.NewPlanSource()
	shared := runSharedCacheArm(t, n, func() *controller.PlanSource { return src }, -1)

	for id := 0; id < n; id++ {
		p, s := private[id], shared[id]
		if p.bits != s.bits {
			t.Errorf("vehicle %d wire trace diverged between private and shared plans", id)
		}
		if !reflect.DeepEqual(p.incidents, s.incidents) {
			t.Errorf("vehicle %d incident log diverged: %d vs %d incidents",
				id, len(p.incidents), len(s.incidents))
		}
	}
	st := src.Stats()
	if st.Plans == 0 || st.Misses == 0 {
		t.Fatalf("shared source never built a plan: %+v", st)
	}
	if st.Hits == 0 {
		t.Fatalf("shared source never served a cross-vehicle hit: %+v", st)
	}
	// Two workers transmitted from the shared plans and payloads
	// concurrently; none may have written to them.
	if err := src.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetRemoveWhileSharedPlans removes a vehicle mid-run while its
// controllers still reference the fleet-shared plans. The source is
// content-addressed and immutable, so the removal must not perturb any
// surviving vehicle (their traces match the private-plans arm bit for bit),
// and the cache keeps serving the survivors afterwards.
func TestFleetRemoveWhileSharedPlans(t *testing.T) {
	const n, removeIdx = 4, 1
	private := runSharedCacheArm(t, n, controller.NewPlanSource, removeIdx)
	src := controller.NewPlanSource()
	shared := runSharedCacheArm(t, n, func() *controller.PlanSource { return src }, removeIdx)

	for id := 0; id < n; id++ {
		if id == removeIdx {
			continue
		}
		p, s := private[id], shared[id]
		if p.bits != s.bits {
			t.Errorf("survivor %d wire trace diverged after removing a cache-sharing vehicle", id)
		}
		if !reflect.DeepEqual(p.incidents, s.incidents) {
			t.Errorf("survivor %d incident log diverged: %d vs %d incidents",
				id, len(p.incidents), len(s.incidents))
		}
	}
	if st := src.Stats(); st.Hits == 0 || st.Plans == 0 {
		t.Fatalf("shared source never exercised across the removal: %+v", st)
	}
	if err := src.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetAddKeepsVehicleSource pins the ownership rule's other half: Add
// wires the fleet's plan cache only into a vehicle that has none, so a
// vehicle built with its own spec.Plans keeps compiling through it, while a
// vehicle without one joins the fleet's.
func TestFleetAddKeepsVehicleSource(t *testing.T) {
	f := fleet.New(fleet.Config{Workers: 2})
	own := controller.NewPlanSource()
	spec := experiment.FleetSpecAt(testSeed, 0, testHorizon, false)
	spec.Plans = own
	kept, err := experiment.NewFleetVehicle(spec)
	if err != nil {
		t.Fatal(err)
	}
	wired, err := experiment.NewFleetVehicle(experiment.FleetSpecAt(testSeed, 1, testHorizon, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*experiment.FleetVehicle{kept, wired} {
		if err := f.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if kept.PlanSource() != own {
		t.Fatal("Add replaced the vehicle's own plan source")
	}
	if wired.PlanSource() != f.Plans() {
		t.Fatal("Add did not wire the fleet's plan source into a vehicle without one")
	}
	f.Start()
	f.Wait()
	f.Stop()
	if st := own.Stats(); st.Misses == 0 {
		t.Fatalf("the vehicle's own source compiled nothing: %+v", st)
	}
	if st := f.Plans().Stats(); st.Misses == 0 {
		t.Fatalf("the fleet's source compiled nothing: %+v", st)
	}
}
