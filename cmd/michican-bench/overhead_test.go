package main

import (
	"os"
	"runtime"
	"testing"
	"time"

	"michican/internal/experiment"
)

// TestOverheadArmsBuildAndTearDown builds and tears down every arm of every
// -overhead layer once, with no timing: whatever an arm starts (an HTTP
// server, a store directory, a poller goroutine) must be gone afterwards.
func TestOverheadArmsBuildAndTearDown(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, tc := range []struct {
		layer string
		arms  []string
		gated *overheadCell
	}{
		{"telemetry", []string{"off", "hub"}, &overheadCell{0.30, experiment.ModeContendFF}},
		{"obs", []string{"hub", "server", "forensics"}, nil},
		{"store", []string{"memory", "store", "checkpoints"}, idleCell},
		{"watch", []string{"forensics", "watch", "poller"}, idleCell},
	} {
		layer, err := overheadLayerFor(tc.layer)
		if err != nil {
			t.Fatal(err)
		}
		if (layer.gated == nil) != (tc.gated == nil) || layer.gated != nil && *layer.gated != *tc.gated {
			t.Errorf("%s: gated cell %v, want %v", tc.layer, layer.gated, tc.gated)
		}
		if len(layer.arms) != len(tc.arms) {
			t.Fatalf("%s: %d arms, want %d", tc.layer, len(layer.arms), len(tc.arms))
		}
		for i, arm := range layer.arms {
			if arm.Name != tc.arms[i] {
				t.Errorf("%s: arm %d is %q, want %q", tc.layer, i, arm.Name, tc.arms[i])
			}
			before := runtime.NumGoroutine()
			hub, teardown, err := arm.Build()
			if err != nil {
				t.Fatalf("%s/%s: build: %v", tc.layer, arm.Name, err)
			}
			if (hub == nil) != (tc.layer == "telemetry" && i == 0) {
				t.Errorf("%s/%s: hub %p; only the telemetry-off arm runs without one", tc.layer, arm.Name, hub)
			}
			serves := tc.layer == "obs" && i > 0
			if (serves || arm.Name == "poller") && runtime.NumGoroutine() <= before {
				t.Errorf("%s/%s: started no server or poller goroutine", tc.layer, arm.Name)
			}
			entries, _ := os.ReadDir(tmp)
			if wantDir := tc.layer == "store" && i > 0; (len(entries) > 0) != wantDir {
				t.Errorf("%s/%s: %d store directories while built, want a fresh one: %v", tc.layer, arm.Name, len(entries), wantDir)
			}
			if _, err := teardown(0); err != nil {
				t.Fatalf("%s/%s: teardown: %v", tc.layer, arm.Name, err)
			}
			if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
				t.Errorf("%s/%s: teardown left %s behind", tc.layer, arm.Name, entries[0].Name())
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%s/%s: %d goroutines outlive teardown", tc.layer, arm.Name, n-before)
			}
		}
	}
	if _, err := overheadLayerFor("fleet"); err == nil {
		t.Error("an unknown layer must be refused")
	}
}

// TestOverheadGates applies each layer's gate to synthetic grids: a named
// cell gates telemetry, store and watch; obs gates its grid median with every
// cell held to 3× the budget.
func TestOverheadGates(t *testing.T) {
	grid := func(layer overheadLayer, pct func(c overheadCell) float64) []experiment.OverheadRow {
		var rows []experiment.OverheadRow
		for _, c := range layer.cells {
			row := experiment.OverheadRow{Load: c.Load, Mode: c.Mode}
			for i, arm := range layer.arms {
				res := experiment.OverheadArmResult{Name: arm.Name}
				if i > 0 {
					res.OverheadPct = pct(c) * float64(i)
				}
				row.Arms = append(row.Arms, res)
			}
			rows = append(rows, row)
		}
		return rows
	}
	for _, tc := range []struct {
		layer  string
		budget float64
		pct    func(c overheadCell) float64
		gated  float64
		within bool
	}{
		// Only the gated cell counts; the others may read anything.
		{"telemetry", 5, func(overheadCell) float64 { return 4.9 }, 4.9, true},
		{"telemetry", 5, func(overheadCell) float64 { return 5.1 }, 5.1, false},
		{"telemetry", -100, func(overheadCell) float64 { return -3 }, -3, false},
		{"store", 6, func(c overheadCell) float64 { return map[bool]float64{true: 1, false: 40}[c == *idleCell] }, 1, true},
		{"watch", 6, func(c overheadCell) float64 { return map[bool]float64{true: 7, false: 0}[c == *idleCell] }, 7, false},
		// obs: the grid median gates, and one cell over 3× fails alone.
		{"obs", 5, func(c overheadCell) float64 { return c.Load * 10 }, 3, true},
		{"obs", 5, func(c overheadCell) float64 { return map[bool]float64{true: 16, false: 0}[c == *idleCell] }, 0, false},
		{"obs", 5, func(c overheadCell) float64 { return map[bool]float64{true: 15, false: 0}[c == *idleCell] }, 0, true},
		{"obs", 5, func(c overheadCell) float64 { return 5.5 }, 5.5, false},
	} {
		layer, err := overheadLayerFor(tc.layer)
		if err != nil {
			t.Fatal(err)
		}
		rep, verdict := gateOverhead(layer, grid(layer, tc.pct), tc.budget)
		if rep.GatedPct != tc.gated || rep.WithinBudget != tc.within {
			t.Errorf("%s at budget %v: gated %v within %v (%s), want %v %v",
				tc.layer, tc.budget, rep.GatedPct, rep.WithinBudget, verdict, tc.gated, tc.within)
		}
		if len(rep.Arms) != len(layer.arms) || rep.Arms[0].MaxPct != 0 {
			t.Errorf("%s: arm summaries %+v", tc.layer, rep.Arms)
		}
	}
}
