package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"michican/internal/experiment"
	"michican/internal/store"
	"michican/internal/trace"
)

// spoofedVehicle runs a recorded spoof-attacked vehicle into a completed
// store under dir and returns its bit trace.
func spoofedVehicle(t *testing.T, dir string) string {
	t.Helper()
	spec := experiment.FleetVehicleSpec{Index: 1, Seed: 7, Load: 0.30, Attack: experiment.FleetAttackSpoof,
		HorizonBits: 60_000, Record: true}
	dv, err := experiment.StartDurableVehicle(dir, spec, 0, "", store.SinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dv.Advance(spec.HorizonBits)
	if err := dv.FinalizeDurable(dv.Finalize()); err != nil {
		t.Fatal(err)
	}
	if err := dv.Close(); err != nil {
		t.Fatal(err)
	}
	return trace.FormatBits(dv.Recorder().Bits(), 120)
}

func TestCandump(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	bits := filepath.Join(root, "trace.txt")
	if err := os.WriteFile(bits, []byte(spoofedVehicle(t, dir)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want []string // substrings of stdout
		err  string   // substring of the error; "" for success
	}{
		{args: []string{bits}, want: []string{"DESTROYED (error frame", "-- 60000 bits,"}},
		{args: []string{"-from-store", dir}, want: []string{
			"DETECT at ID bit", "DESTROYED attempt", "(full recording)", "incidents reconstructed", "stored incidents intersect"}},
		{args: []string{"-from-store", dir, "-window", "0:30000"}, want: []string{"(0:30000)"}},
		{args: []string{"-from-store", dir, "-window", "5:2"}, err: "empty window"},
		{args: []string{"-from-store", dir, "-window", "x:"}, err: "bad window start"},
		{args: []string{"-from-store", filepath.Join(root, "none")}, err: "no such file"},
		{args: []string{bits, bits}, err: "at most one input file"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%v: err = %v, want one containing %q", tc.args, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		for _, w := range tc.want {
			if !strings.Contains(stdout.String(), w) {
				t.Errorf("%v: stdout lacks %q:\n%s", tc.args, w, stdout.String())
			}
		}
	}
}
