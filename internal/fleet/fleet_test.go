package fleet_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"michican/internal/experiment"
	"michican/internal/fleet"
	"michican/internal/forensics"
)

const (
	testSeed    = 7
	testHorizon = 400_000
)

// vehicleTrace is one vehicle's complete observable outcome: the recorded
// wire trace plus the finalized incident log.
type vehicleTrace struct {
	bits      string
	incidents []forensics.Incident
}

// runArm builds the given spec indices, joins them in joinOrder (possibly
// after Start — churn), runs the fleet to drain, and returns every vehicle's
// outcome keyed by id. joinAfterStart says how many of the tail of joinOrder
// join only once the fleet is already running.
func runArm(t *testing.T, workers int, joinOrder []int, joinAfterStart int) (map[int]vehicleTrace, *fleet.Fleet) {
	t.Helper()
	f := fleet.New(fleet.Config{Workers: workers})
	vehicles := make(map[int]*experiment.FleetVehicle)
	join := func(i int) {
		v, err := experiment.NewFleetVehicle(experiment.FleetSpecAt(testSeed, i, testHorizon, true))
		if err != nil {
			t.Fatalf("build vehicle %d: %v", i, err)
		}
		vehicles[i] = v
		if err := f.Add(v); err != nil {
			t.Fatalf("add vehicle %d: %v", i, err)
		}
	}
	pre := joinOrder[:len(joinOrder)-joinAfterStart]
	post := joinOrder[len(joinOrder)-joinAfterStart:]
	for _, i := range pre {
		join(i)
	}
	f.Start()
	for _, i := range post {
		join(i)
	}
	f.Wait()
	f.Stop()

	out := make(map[int]vehicleTrace, len(vehicles))
	for id, v := range vehicles {
		// Finalize is idempotent: the worker already finalized at retirement,
		// this call just hands back the complete incident log.
		out[id] = vehicleTrace{
			bits:      fmt.Sprint(v.Recorder().Bits()),
			incidents: v.Finalize(),
		}
	}
	return out, f
}

// TestDeterminismAcrossWorkerCountsAndChurn is the fleet's core contract:
// the same vehicle spec produces a bit-identical wire trace and incident log
// whether the fleet runs 1, 2 or 4 workers, on one P or two, and whether
// vehicles join up-front in order or churn in shuffled, mid-run. At one P
// every yielding worker time-shares it. The scheduler decides when a
// vehicle's bits are simulated, never what they are.
func TestDeterminismAcrossWorkerCountsAndChurn(t *testing.T) {
	const n = 6
	inOrder := []int{0, 1, 2, 3, 4, 5}
	shuffled := []int{3, 5, 1, 0, 4, 2}

	base, _ := runArm(t, 1, inOrder, 0)
	arms := []struct {
		name           string
		workers        int
		order          []int
		joinAfterStart int
	}{
		{"workers=2", 2, inOrder, 0},
		{"workers=2 churned", 2, shuffled, 3},
		{"workers=4", 4, inOrder, 0},
		{"workers=4 churned", 4, shuffled, 3},
		{"workers=1 churned", 1, shuffled, 2},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, arm := range arms {
			got, _ := runArm(t, arm.workers, arm.order, arm.joinAfterStart)
			for id := 0; id < n; id++ {
				b, g := base[id], got[id]
				if b.bits != g.bits {
					t.Errorf("GOMAXPROCS=%d %s: vehicle %d wire trace diverged from the 1-worker baseline",
						procs, arm.name, id)
				}
				if !reflect.DeepEqual(b.incidents, g.incidents) {
					t.Errorf("GOMAXPROCS=%d %s: vehicle %d incident log diverged: %d vs %d incidents",
						procs, arm.name, id, len(b.incidents), len(g.incidents))
				}
			}
		}
	}
}

// TestDefaultWorkersFollowGOMAXPROCS checks the default worker count is the
// number of Ps, not of cores: a process limited to one P starts one worker.
func TestDefaultWorkersFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := fleet.New(fleet.Config{}).Health().Workers; got != 1 {
		t.Fatalf("default workers at GOMAXPROCS=1 = %d, want 1", got)
	}
}

// TestAggregateMatchesVehicleSum pins the merge-correctness of the
// thresholded net-commit path: after the fleet drains (every vehicle force-
// committed at retirement), each aggregate counter series must equal the
// exact sum of that series across the per-vehicle registries — no lost and
// no double-counted deltas, whatever the commit interleaving was.
func TestAggregateMatchesVehicleSum(t *testing.T) {
	const n = 5
	f := fleet.New(fleet.Config{
		Workers: 2,
		// A tiny threshold forces many commit batches, maximizing the chance
		// an interleaving bug double- or under-counts.
		CommitThreshold: 64,
	})
	vehicles := make([]*experiment.FleetVehicle, n)
	for i := range vehicles {
		v, err := experiment.NewFleetVehicle(experiment.FleetSpecAt(testSeed, i, testHorizon, false))
		if err != nil {
			t.Fatal(err)
		}
		vehicles[i] = v
		if err := f.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	f.Start()
	f.Wait()
	f.Stop()

	want := map[string]int64{}
	for _, v := range vehicles {
		for k, c := range v.Hub().Registry().SnapshotCounters() {
			want[k] += c
		}
	}
	mv := f.Aggregate().MetricsView()
	for k, w := range want {
		if got := mv.Counters[k]; got != w {
			t.Errorf("aggregate %s = %d, want %d (sum over vehicles)", k, got, w)
		}
	}
	for k := range mv.Counters {
		if _, ok := want[k]; !ok {
			t.Errorf("aggregate has series %s no vehicle produced", k)
		}
	}
	if mv.CommitCalls == 0 || mv.LogicalUpdates == 0 {
		t.Fatalf("commit accounting empty: calls=%d updates=%d", mv.CommitCalls, mv.LogicalUpdates)
	}
	if mv.CommitCalls >= mv.LogicalUpdates {
		t.Errorf("net-commit economy inverted: %d commit calls for %d logical updates",
			mv.CommitCalls, mv.LogicalUpdates)
	}
	if mv.SimBits != n*testHorizon {
		t.Errorf("aggregate sim bits = %d, want %d", mv.SimBits, n*testHorizon)
	}
}

// TestIncidentHandOff checks retired vehicles' incidents land in the
// aggregate's totals and per-vehicle index exactly once.
func TestIncidentHandOff(t *testing.T) {
	f := fleet.New(fleet.Config{Workers: 2})
	var wantTotal int
	vehicles := make([]*experiment.FleetVehicle, 4)
	for i := range vehicles {
		v, err := experiment.NewFleetVehicle(experiment.FleetSpecAt(testSeed, i, testHorizon, false))
		if err != nil {
			t.Fatal(err)
		}
		vehicles[i] = v
		if err := f.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	f.Start()
	f.Wait()
	f.Stop()
	iv := f.Aggregate().IncidentsView()
	for _, v := range vehicles {
		wantTotal += len(v.Finalize())
	}
	if int(iv.Totals.Incidents) != wantTotal {
		t.Fatalf("aggregate incidents = %d, want %d", iv.Totals.Incidents, wantTotal)
	}
	if len(iv.Recent) != wantTotal && wantTotal <= 256 {
		t.Fatalf("recent ring holds %d incidents, want %d", len(iv.Recent), wantTotal)
	}
}

// TestRemoveRetiresWithoutHorizon covers explicit removal: a horizon-less
// vehicle runs until removed, and removal before Start retires it cleanly.
func TestRemoveRetiresWithoutHorizon(t *testing.T) {
	f := fleet.New(fleet.Config{Workers: 1})
	v, err := experiment.NewFleetVehicle(experiment.FleetSpecAt(testSeed, 0, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add(v); err != nil {
		t.Fatal(err)
	}
	if !f.Remove(v.ID()) {
		t.Fatal("Remove(known id) = false")
	}
	if f.Remove(99) {
		t.Fatal("Remove(unknown id) = true")
	}
	f.Start()
	f.Wait()
	f.Stop()
	h := f.Health()
	if h.Completed != 1 || h.Removed != 1 || h.ActiveVehicles != 0 {
		t.Fatalf("health after removal: %+v", h)
	}
	if f.Remove(v.ID()) {
		t.Fatal("Remove(retired id) = true")
	}
}

// TestChurnViaOnRetire drives the churn-driver shape the benchmark uses:
// every retirement backfills a joiner until the budget runs out, and the
// duplicate-id guard rejects re-joining a retired identity.
func TestChurnViaOnRetire(t *testing.T) {
	const initial, total = 3, 8
	var f *fleet.Fleet
	next := make(chan int, total)
	for i := initial; i < total; i++ {
		next <- i
	}
	close(next)
	joinErr := make(chan error, total)
	f = fleet.New(fleet.Config{
		Workers: 2,
		OnRetire: func(fleet.VehicleResult) {
			i, ok := <-next
			if !ok {
				return
			}
			v, err := experiment.NewFleetVehicle(experiment.FleetSpecAt(testSeed, i, testHorizon/4, false))
			if err == nil {
				err = f.Add(v)
			}
			if err != nil {
				joinErr <- err
			}
		},
	})
	for i := 0; i < initial; i++ {
		v, err := experiment.NewFleetVehicle(experiment.FleetSpecAt(testSeed, i, testHorizon/4, false))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	f.Start()
	for f.Health().Completed < total {
		f.Wait() // returns at active==0; churn may have already backfilled
	}
	f.Stop()
	select {
	case err := <-joinErr:
		t.Fatalf("churn join failed: %v", err)
	default:
	}
	h := f.Health()
	if h.Joined != total || h.Completed != total {
		t.Fatalf("joined=%d completed=%d, want %d each", h.Joined, h.Completed, total)
	}
	// A retired identity must not be re-joinable.
	v, err := experiment.NewFleetVehicle(experiment.FleetSpecAt(testSeed, 0, testHorizon/4, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add(v); err == nil {
		t.Fatal("re-adding a retired id succeeded")
	}
}

// TestVehicleViewsDuringRun exercises the observability read paths while
// workers are advancing: the census, per-vehicle snapshots and the metrics
// view must all return consistent data without perturbing the run.
func TestVehicleViewsDuringRun(t *testing.T) {
	f := fleet.New(fleet.Config{Workers: 2})
	const n = 4
	for i := 0; i < n; i++ {
		v, err := experiment.NewFleetVehicle(experiment.FleetSpecAt(testSeed, i, testHorizon, false))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	f.Start()
	for f.Health().Completed < n {
		for _, vi := range f.Vehicles() {
			snap, ok := f.VehicleSnapshot(vi.ID)
			if !ok {
				t.Fatalf("snapshot for listed vehicle %d missing", vi.ID)
			}
			if snap.NowBits < 0 || snap.NowBits > testHorizon {
				t.Fatalf("vehicle %d now=%d outside [0,%d]", vi.ID, snap.NowBits, int64(testHorizon))
			}
		}
		mv := f.Aggregate().MetricsView()
		if mv.CommittedDelta < 0 {
			t.Fatal("negative committed delta")
		}
	}
	f.Wait()
	f.Stop()
	if _, ok := f.VehicleSnapshot(0); !ok {
		t.Fatal("retired vehicle snapshot missing")
	}
	if _, ok := f.VehicleSnapshot(123); ok {
		t.Fatal("snapshot for unknown id succeeded")
	}
}
