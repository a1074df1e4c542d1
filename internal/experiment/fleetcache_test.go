package experiment

import "testing"

// TestMeasureFleetPlanCache smoke-tests the fleet compile-time/memory arm at
// a tiny population: the shared row must show the cache actually absorbing
// the population's plan working set, the private row must report no cache.
func TestMeasureFleetPlanCache(t *testing.T) {
	shared, err := MeasureFleetPlanCache(3, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !shared.SharedCache || shared.Vehicles != 3 {
		t.Fatalf("shared row mislabeled: %+v", shared)
	}
	if shared.Cache.Plans == 0 || shared.Cache.Misses == 0 || shared.Cache.ResidentBytes == 0 {
		t.Fatalf("shared row shows an unexercised cache: %+v", shared.Cache)
	}
	if shared.Cache.Hits == 0 {
		t.Fatalf("three vehicles over one matrix produced no cross-vehicle hits: %+v", shared.Cache)
	}
	private, err := MeasureFleetPlanCache(3, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if private.SharedCache || private.Cache.Plans != 0 || private.Cache.Hits != 0 {
		t.Fatalf("private row reports a cache: %+v", private)
	}
	if private.BuildSeconds < 0 || shared.BuildSeconds < 0 {
		t.Fatal("negative build time")
	}
}

// TestBenignVehicleSteadyStateAllocations gates the per-send cost of a
// warmed vehicle: a benign 60%-load hyper-ff vehicle with its forensics and
// watch stack, plans compiled and buffers grown, advances 2^22 bits with
// only a handful of allocations. The defender alone sends every 1,250 bits,
// about 3,355 times here, so one allocation per send fails the gate.
func TestBenignVehicleSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	v, err := NewFleetVehicle(FleetVehicleSpec{
		Seed: DeriveSeed(1, 0), Load: 0.60, Mode: ModeHyperFF, Attack: FleetAttackNone, Watch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	v.WarmPlans()
	v.Advance(1 << 22)
	const steadyMax = 8
	if got := testing.AllocsPerRun(1, func() { v.Advance(1 << 22) }); got > steadyMax {
		t.Errorf("2^22 warm bits allocate %v times, want at most %d", got, steadyMax)
	}
}
