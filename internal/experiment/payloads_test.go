package experiment

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"michican/internal/controller"
	"michican/internal/forensics"
	"michican/internal/watch"
)

// attackedVehicle runs one watch-on vehicle of the given attack kind at 30%
// load over bits simulated bits.
func attackedVehicle(t *testing.T, a FleetAttack, bits int64, plans *controller.PlanSource) *FleetVehicle {
	t.Helper()
	spec := FleetSpecAt(1, 0, bits, false)
	spec.Attack, spec.Load, spec.Watch, spec.Plans = a, 0.30, true, plans
	v, err := NewFleetVehicle(spec)
	if err != nil {
		t.Fatal(err)
	}
	v.Advance(spec.HorizonBits)
	v.Finalize()
	return v
}

// TestStorePayloadsMatchJSONMarshal: over whole attacked runs, the alert
// and incident logs' store payloads are byte for byte json.Marshal of the
// materialized alerts and incidents, and every alert payload decodes back
// to the alert it encodes.
func TestStorePayloadsMatchJSONMarshal(t *testing.T) {
	for _, a := range []FleetAttack{FleetAttackSpoof, FleetAttackDoS, FleetAttackToggle} {
		t.Run(string(a), func(t *testing.T) {
			v := attackedVehicle(t, a, 1<<19, nil)
			incs := v.stack.Forensics.Incidents()
			alerts := v.Watch().Alerts()
			if len(incs) == 0 || len(alerts) == 0 {
				t.Fatalf("%d incidents and %d alerts: nothing to compare", len(incs), len(alerts))
			}
			incPayloads, err := forensics.EncodeIncidents(incs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range incs {
				ref, err := json.Marshal(incs[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(incPayloads[i], ref) {
					t.Fatalf("incident %d\n got %s\nwant %s", i, incPayloads[i], ref)
				}
			}
			alertPayloads, err := v.Watch().EncodeAlertLog()
			if err != nil {
				t.Fatal(err)
			}
			if len(alertPayloads) != len(alerts) {
				t.Fatalf("%d alert payloads for %d alerts", len(alertPayloads), len(alerts))
			}
			for i, al := range alerts {
				ref, err := json.Marshal(al)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(alertPayloads[i], ref) {
					t.Fatalf("alert %d\n got %s\nwant %s", i, alertPayloads[i], ref)
				}
				back, err := watch.DecodeAlert(alertPayloads[i])
				if err != nil || !reflect.DeepEqual(back, al) {
					t.Fatalf("alert %d decodes to %+v (%v), want %+v", i, back, err, al)
				}
			}
		})
	}
}

// TestSharedPlansNoSpliceResets: with a fleet plan source, every node of an
// attacked vehicle — the attacker included — numbers its frames in that one
// source, so no window reaches the defense's splice index under an id
// another span already holds.
func TestSharedPlansNoSpliceResets(t *testing.T) {
	src := controller.NewPlanSource()
	for _, a := range []FleetAttack{FleetAttackSpoof, FleetAttackDoS, FleetAttackToggle} {
		v := attackedVehicle(t, a, 1<<19, src)
		if n := v.defense.SpliceResets(); n != 0 {
			t.Errorf("%s: %d splice index resets with a shared plan source, want 0", a, n)
		}
		if v.defense.MemoSlots() == 0 {
			t.Errorf("%s: the splice index never filled", a)
		}
	}
}
