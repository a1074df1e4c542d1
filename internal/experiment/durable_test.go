package experiment

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"michican/internal/controller"
	"michican/internal/fleet"
	"michican/internal/forensics"
	"michican/internal/store"
	"michican/internal/telemetry"
	"michican/internal/watch"
)

// sameSegments compares the segment files matching pattern (e.g. "*.seg")
// of two store dirs byte for byte — the on-disk witness that a resumed run
// converged with an uninterrupted one. Checkpoint and meta files are
// deliberately excluded: checkpoint counts legitimately differ (the resumed
// run skips re-checkpointing the regenerated prefix).
func sameSegments(t *testing.T, dirA, dirB, pattern string) {
	t.Helper()
	segsA, _ := filepath.Glob(filepath.Join(dirA, pattern))
	segsB, _ := filepath.Glob(filepath.Join(dirB, pattern))
	if len(segsA) != len(segsB) {
		t.Fatalf("segment count differs: %d vs %d", len(segsA), len(segsB))
	}
	for i := range segsA {
		da, err := os.ReadFile(segsA[i])
		if err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(segsB[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Fatalf("%s differs from %s (%d vs %d bytes)",
				filepath.Base(segsA[i]), filepath.Base(segsB[i]), len(da), len(db))
		}
	}
}

// errorGauges reads the defender/attacker TEC and REC gauges — the error
// counters the paper's bus-off timelines are built from.
func errorGauges(d *DurableVehicle) map[string]float64 {
	out := make(map[string]float64)
	reg := d.Hub().Registry()
	for _, node := range []string{"defender", "attacker"} {
		for _, name := range []string{"michican_tec", "michican_rec"} {
			if g := reg.FindGauge(name, "node", node); g != nil {
				out[name+"/"+node] = g.Value()
			}
		}
	}
	return out
}

// TestResumeDeterminismAcrossModes is the PR's acceptance gate: in every
// stepping mode, a run SIGKILLed mid-flight (modelled as dropping the store
// with no finalize) and resumed from its last checkpoint must produce
// bit-identical wire traces, TEC/REC counters, incident logs, and byte-
// identical store segments versus the same run left uninterrupted.
func TestResumeDeterminismAcrossModes(t *testing.T) {
	const horizon = 300_000
	sinkOpts := store.SinkOptions{FlushEvents: 512, CheckpointIntervalBits: 40_000}
	for _, mode := range SteppingModes {
		t.Run(string(mode), func(t *testing.T) {
			spec := FleetVehicleSpec{
				Index: 0, Seed: 12345, Load: 0.30, Mode: mode,
				Attack: FleetAttackSpoof, HorizonBits: horizon, Record: true,
			}

			// Uninterrupted reference, fully durable.
			refDir := t.TempDir()
			ref, err := StartDurableVehicle(refDir, spec, 0, "", sinkOpts)
			if err != nil {
				t.Fatal(err)
			}
			ref.Advance(horizon)
			if err := ref.FinalizeDurable(ref.Finalize()); err != nil {
				t.Fatal(err)
			}
			ref.Close()

			// Interrupted run: same spec, killed at ~60% with no finalize.
			dir := t.TempDir()
			d1, err := StartDurableVehicle(dir, spec, 0, "", sinkOpts)
			if err != nil {
				t.Fatal(err)
			}
			d1.Advance(horizon * 6 / 10)
			if err := d1.Sink.Err(); err != nil {
				t.Fatal(err)
			}
			d1.Close() // crash: no incident handoff, no final checkpoint

			// Resume from the last checkpoint and run to the horizon.
			d2, err := ResumeDurableVehicle(dir, store.SinkOptions{FlushEvents: 512, CheckpointIntervalBits: 40_000})
			if err != nil {
				t.Fatal(err)
			}
			cp, err := d2.Store.LatestCheckpoint()
			if err != nil || cp.Events == 0 {
				t.Fatalf("expected a mid-run checkpoint to resume from, got %+v (%v)", cp, err)
			}
			d2.Advance(horizon)
			incs2 := d2.Finalize()
			if err := d2.FinalizeDurable(incs2); err != nil {
				t.Fatal(err)
			}

			// Wire traces bit-identical.
			if !reflect.DeepEqual(ref.Recorder().Bits(), d2.Recorder().Bits()) {
				t.Fatal("resumed wire trace differs from uninterrupted run")
			}
			// TEC/REC counters identical.
			if g1, g2 := errorGauges(ref), errorGauges(d2); !reflect.DeepEqual(g1, g2) {
				t.Fatalf("TEC/REC diverged: %v vs %v", g1, g2)
			}
			// Incident logs identical.
			if !reflect.DeepEqual(ref.Finalize(), incs2) {
				t.Fatal("resumed incident log differs from uninterrupted run")
			}
			d2.Close()
			// On-disk segments byte-identical (events and incidents).
			sameSegments(t, refDir, dir, "*.seg")
		})
	}
}

// TestResumeCompletedRun verifies the roster path: resuming a store whose
// run already finished reports ErrRunComplete instead of re-simulating.
func TestResumeCompletedRun(t *testing.T) {
	dir := t.TempDir()
	spec := FleetVehicleSpec{Index: 3, Seed: 99, Load: 0.02, Mode: ModeSpliceFF, Attack: FleetAttackNone, HorizonBits: 50_000}
	d, err := StartDurableVehicle(dir, spec, 0, "", store.SinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.Advance(50_000)
	if err := d.FinalizeDurable(d.Finalize()); err != nil {
		t.Fatal(err)
	}
	d.Close()

	if _, err := ResumeDurableVehicle(dir, store.SinkOptions{}); err != ErrRunComplete {
		t.Fatalf("resume of completed run = %v, want ErrRunComplete", err)
	}
	// The completed store still records the spec it was generated from.
	var spec2 FleetVehicleSpec
	if _, _, err := ResumeStore(dir, &spec2, store.SinkOptions{}, func() error { return nil }); err != ErrRunComplete || spec2 != spec {
		t.Fatalf("ResumeStore = %v with spec %+v, want ErrRunComplete with %+v", err, spec2, spec)
	}
}

// advanceSliced advances a vehicle to bit time `to` in Advance calls of at
// most slice bits — the quantum a fleet worker (or michican-fleet
// -slice-bits) hands it.
func advanceSliced(v *FleetVehicle, to, slice int64) {
	for now := v.Now(); now < to; now = v.Now() {
		v.Advance(min(slice, to-now))
	}
}

// sortedAlerts returns a store's alert transitions as a sorted multiset,
// each without its Seq (its position in the log).
func sortedAlerts(t *testing.T, st *store.Store) []string {
	t.Helper()
	var out []string
	if err := st.AlertPayloads(func(p []byte) error {
		a, err := watch.DecodeAlert(p)
		if err != nil {
			return err
		}
		a.Seq = 0
		enc, err := watch.EncodeAlert(a)
		out = append(out, string(enc))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// noLateEvents fails the test if the hub's sequencer released any event
// out of canonical order.
func noLateEvents(t *testing.T, h *telemetry.Hub) {
	t.Helper()
	if n := h.LateEvents(); n != 0 {
		t.Fatalf("hub sequencer saw %d late events: the reorder slack no longer covers the ladder's displacement", n)
	}
}

// TestResumeIndependentOfSlicing is the slicing-independence property: a
// durable vehicle crashed at a random point under one Advance slicing and
// resumed under another finalizes cleanly, and its event and incident logs
// are byte-identical to an uninterrupted run at a third slicing. The alert
// log is compared as a multiset: its order follows the hub sequencer's
// drain points, which can depend on slicing. No hub may see a late event:
// the sequencer's slack must cover every displacement the ladder produces.
func TestResumeIndependentOfSlicing(t *testing.T) {
	const (
		horizon  = 655_360 // 589,824 + 65,536: the reproduction's crash point plus a quantum
		refSlice = horizon // the reference advances in one call
	)
	sinkOpts := store.SinkOptions{CheckpointIntervalBits: 262_144}
	// The slicings that diverged before span records left the store.
	fixed := [][2]int64{{589_824, 65_536}, {65_536, 589_824}, {4_093, 131_072}}
	rng := rand.New(rand.NewSource(16))
	i := 0
	for _, attack := range []FleetAttack{FleetAttackNone, FleetAttackSpoof, FleetAttackDoS, FleetAttackToggle} {
		for _, load := range []float64{0.3, 0.6} {
			spec := FleetSpecAt(1, 0, horizon, false)
			spec.Attack, spec.Load, spec.Watch = attack, load, true
			// Each configuration resumes across one fixed pair (crashed at
			// the reproduction's 589,824 bits) and one random pair at a
			// random crash point.
			pair := fixed[i%len(fixed)]
			i++
			cases := []struct{ crashAt, crashSlice, resumeSlice int64 }{
				{589_824, pair[0], pair[1]},
				{270_000 + rng.Int63n(380_000), 1 + rng.Int63n(300_000), 1 + rng.Int63n(300_000)},
			}
			t.Run(fmt.Sprintf("%s/%.1f", attack, load), func(t *testing.T) {
				t.Parallel()
				refDir := t.TempDir()
				ref, err := StartDurableVehicle(refDir, spec, 0, "", sinkOpts)
				if err != nil {
					t.Fatal(err)
				}
				advanceSliced(ref.FleetVehicle, horizon, refSlice)
				if err := ref.FinalizeDurable(ref.Finalize()); err != nil {
					t.Fatal(err)
				}
				noLateEvents(t, ref.Hub())
				refAlerts := sortedAlerts(t, ref.Store)
				ref.Close()

				for _, c := range cases {
					dir := t.TempDir()
					d1, err := StartDurableVehicle(dir, spec, 0, "", sinkOpts)
					if err != nil {
						t.Fatal(err)
					}
					advanceSliced(d1.FleetVehicle, c.crashAt, c.crashSlice)
					// The crash image: the tail past the last checkpoint is on
					// disk, but no incidents, alerts or final checkpoint.
					if err := d1.Sink.Close(d1.Now(), false); err != nil {
						t.Fatal(err)
					}
					noLateEvents(t, d1.Hub())
					d1.Close()

					d2, err := ResumeDurableVehicle(dir, sinkOpts)
					if err != nil {
						t.Fatal(err)
					}
					advanceSliced(d2.FleetVehicle, horizon, c.resumeSlice)
					if err := d2.FinalizeDurable(d2.Finalize()); err != nil {
						t.Fatalf("crash at %d sliced %d, resume sliced %d: %v", c.crashAt, c.crashSlice, c.resumeSlice, err)
					}
					noLateEvents(t, d2.Hub())
					err = d2.Store.Events(func(ev telemetry.NamedEvent) error {
						if ev.Kind == telemetry.EvFFSpan {
							return fmt.Errorf("stored ff_span record at t=%d", ev.Time)
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					if got := sortedAlerts(t, d2.Store); !reflect.DeepEqual(got, refAlerts) {
						t.Fatalf("crash at %d sliced %d, resume sliced %d: alert log %d entries, reference %d (as multisets they differ)",
							c.crashAt, c.crashSlice, c.resumeSlice, len(got), len(refAlerts))
					}
					d2.Close()
					sameSegments(t, refDir, dir, "events-*.seg")
					sameSegments(t, refDir, dir, "incidents-*.seg")
				}
			})
		}
	}
}

// durableFleet is a fleet that persists each retiring vehicle as
// michican-fleet -store does: FinalizeDurable, then Store.Close.
func durableFleet(t *testing.T) *fleet.Fleet {
	return fleet.New(fleet.Config{Workers: 2, OnFinalize: func(v fleet.Vehicle, incs []forensics.Incident) {
		dv := v.(*DurableVehicle)
		if err := dv.FinalizeDurable(incs); err != nil {
			t.Errorf("finalize vehicle %d: %v", v.ID(), err)
		}
		if err := dv.Store.Close(); err != nil {
			t.Errorf("close vehicle %d: %v", v.ID(), err)
		}
	}})
}

// TestResumedFleetSharesPlans pins the fleet's plan-ownership rule on the
// recovery path: a roster crashed past a checkpoint and resumed through
// ResumeDurableVehicle into a new fleet compiles through the fleet's one
// source (every controller of every vehicle), compiles each distinct frame
// exactly as often as an uninterrupted shared run, and leaves stores
// byte-identical to that run.
func TestResumedFleetSharesPlans(t *testing.T) {
	const (
		horizon = 524_288
		crashAt = 327_680 // five 65,536-bit quanta, past the 262,144 checkpoint
		slice   = 65_536  // the fleet's default quantum
	)
	sinkOpts := store.SinkOptions{CheckpointIntervalBits: 131_072}
	mixes := []struct {
		attack FleetAttack
		load   float64
	}{{FleetAttackSpoof, 0.3}, {FleetAttackDoS, 0.3}, {FleetAttackToggle, 0.6}, {FleetAttackNone, 0.02}}
	specs := make([]FleetVehicleSpec, len(mixes))
	for i, m := range mixes {
		specs[i] = FleetSpecAt(3, i, horizon, false)
		specs[i].Attack, specs[i].Load, specs[i].Watch = m.attack, m.load, true
	}
	refRoot, crashRoot := t.TempDir(), t.TempDir()
	dirOf := func(root string, i int) string { return filepath.Join(root, fmt.Sprintf("v%05d", i)) }

	// The uninterrupted reference: the fleet wires its source into vehicles
	// built without one.
	ref := durableFleet(t)
	for i, spec := range specs {
		dv, err := StartDurableVehicle(dirOf(refRoot, i), spec, 0, "", sinkOpts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Add(dv); err != nil {
			t.Fatal(err)
		}
	}
	ref.Start()
	ref.Wait()
	ref.Stop()
	want := ref.Plans().Stats()
	if want.Misses == 0 || want.Hits == 0 {
		t.Fatalf("reference fleet never exercised its plan source: %+v", want)
	}

	// The crash image: every vehicle advanced past a checkpoint, then its
	// sink and store closed without finalizing.
	for i, spec := range specs {
		dv, err := StartDurableVehicle(dirOf(crashRoot, i), spec, 0, "", sinkOpts)
		if err != nil {
			t.Fatal(err)
		}
		advanceSliced(dv.FleetVehicle, crashAt, slice)
		if err := dv.Sink.Close(dv.Now(), false); err != nil {
			t.Fatal(err)
		}
		dv.Close()
	}

	f := durableFleet(t)
	for i := range specs {
		dv, err := ResumeDurableVehicle(dirOf(crashRoot, i), sinkOpts)
		if err != nil {
			t.Fatal(err)
		}
		if cp, err := dv.Store.LatestCheckpoint(); err != nil || cp.Events == 0 {
			t.Fatalf("vehicle %d: no mid-run checkpoint to resume from: %+v (%v)", i, cp, err)
		}
		if err := f.Add(dv); err != nil {
			t.Fatal(err)
		}
		ctls := []*controller.Controller{dv.defender}
		if dv.restbus != nil {
			ctls = append(ctls, dv.restbus.Controller())
		}
		for _, a := range dv.attackers {
			ctls = append(ctls, a.Controller())
		}
		if len(ctls) < 2 {
			t.Fatalf("vehicle %d: %d controllers, want a defender plus a replayer or attacker", i, len(ctls))
		}
		for _, c := range ctls {
			if c.PlanSource() != f.Plans() {
				t.Fatalf("vehicle %d: a controller does not resolve through the fleet's plan source", i)
			}
		}
	}
	f.Start()
	f.Wait()
	f.Stop()
	if got := f.Plans().Stats(); got.Misses != want.Misses {
		t.Fatalf("resumed fleet compiled %d distinct frames, the uninterrupted run %d", got.Misses, want.Misses)
	}
	for i := range specs {
		sameSegments(t, dirOf(refRoot, i), dirOf(crashRoot, i), "*.seg")
	}
}
