package experiment

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"michican/internal/store"
)

// TestSteppingModeValidation pins how every constructor that takes a stepping
// mode treats each valid mode, the empty mode (the full ladder) and an
// unknown one (an error naming it): the fleet vehicle, the throughput
// scenario, and a durable vehicle started fresh or resumed from a stored
// spec.
func TestSteppingModeValidation(t *testing.T) {
	cases := []struct {
		mode SteppingMode
		want SteppingMode // the mode the vehicle runs; "" when rejected
	}{{"", ModeSpliceFF}, {"bogus", ""}}
	for _, m := range SteppingModes {
		cases = append(cases, struct{ mode, want SteppingMode }{m, m})
	}
	for _, tc := range cases {
		t.Run("mode="+string(tc.mode), func(t *testing.T) {
			check := func(what string, err error) {
				t.Helper()
				switch {
				case tc.want != "" && err != nil:
					t.Errorf("%s: mode %q rejected: %v", what, tc.mode, err)
				case tc.want == "" && err == nil:
					t.Errorf("%s: unknown mode %q accepted", what, tc.mode)
				case tc.want == "" && !strings.Contains(err.Error(), `"`+string(tc.mode)+`"`):
					t.Errorf("%s: error %q does not name mode %q", what, err, tc.mode)
				}
			}
			spec := FleetVehicleSpec{Mode: tc.mode, Attack: FleetAttackNone}
			v, err := NewFleetVehicle(spec)
			check("NewFleetVehicle", err)
			if err == nil && v.Spec().Mode != tc.want {
				t.Errorf("NewFleetVehicle: mode %q runs as %q, want %q", tc.mode, v.Spec().Mode, tc.want)
			}
			_, err = ThroughputScenario(0.02, tc.mode)
			check("ThroughputScenario", err)

			dir := filepath.Join(t.TempDir(), "fresh")
			dv, err := StartDurableVehicle(dir, spec, 0, "", store.SinkOptions{})
			check("StartDurableVehicle", err)
			if err == nil {
				dv.Sink.Close(0, false)
				dv.Store.Close()
			} else if _, statErr := os.Stat(dir); !errors.Is(statErr, os.ErrNotExist) {
				t.Errorf("StartDurableVehicle: rejected spec left a store behind (%v)", statErr)
			}

			// A stored spec is read back as written, so a resume must apply
			// the same check.
			dir = filepath.Join(t.TempDir(), "stored")
			cfg, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			st, err := store.Create(dir, store.Meta{Kind: "vehicle", Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			st.Close()
			dv, err = ResumeDurableVehicle(dir, store.SinkOptions{})
			check("ResumeDurableVehicle", err)
			if err == nil {
				dv.Sink.Close(0, false)
				dv.Store.Close()
			}
		})
	}
}
