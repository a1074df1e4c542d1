package experiment

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
	"testing"

	"michican/internal/telemetry"
)

// scriptedArms returns n arms that log their builds and teardowns into log
// and hand the runner a distinct hub each (nil for the first arm, as a
// telemetry-off baseline would).
func scriptedArms(n int, log *[]string, teardownErr error) ([]OverheadArm, []*telemetry.Hub) {
	hubs := make([]*telemetry.Hub, n)
	arms := make([]OverheadArm, n)
	for i := range arms {
		name := string(rune('a' + i))
		if i > 0 {
			hubs[i] = telemetry.NewHub()
		}
		hub := hubs[i]
		builds := 0
		arms[i] = OverheadArm{Name: name, Build: func() (*telemetry.Hub, OverheadTeardown, error) {
			*log = append(*log, "build "+name)
			rep := builds
			builds++
			return hub, func(end int64) (OverheadCounts, error) {
				*log = append(*log, "teardown "+name)
				return OverheadCounts{"rep": int64(rep), "end": end}, teardownErr
			}, nil
		}}
	}
	return arms, hubs
}

func TestMeasureOverheadLoop(t *testing.T) {
	// Per-round throughputs: the baseline drifts from round to round, and
	// arm b's paired slowdown in round r is slow[r] percent, so only a
	// paired estimator recovers exactly the median of slow (-1, negative).
	base := []float64{100, 80, 120, 90, 110, 70, 130, 95, 105, 85, 115}
	slow := []float64{-3, 7, -1, 2, -8, -2, 4, -5, 9, -4, 1}
	var log []string
	arms, hubs := scriptedArms(3, &log, nil)
	// The first calibration run is cold and slow; the repetitions are sized
	// from the second, run at the size the first one suggests.
	const simBits, cold, warm = 1000, 1e5, 1e6
	calls := 0
	run := func(load float64, mode SteppingMode, bits int64, hub *telemetry.Hub) (float64, error) {
		defer func() { calls++ }()
		if load != 0.3 || mode != ModeExact {
			t.Fatalf("runner got load %v mode %q", load, mode)
		}
		if calls < 2 {
			if want := []int64{simBits, cold * minWallSecondsPerRep}[calls]; hub != nil || bits != want {
				t.Fatalf("calibration run %d: hub %p, %d bits; want no hub, %d bits", calls, hub, bits, want)
			}
			return []float64{cold, warm}[calls], nil
		}
		if want := int64(warm * minWallSecondsPerRep); bits != want {
			t.Fatalf("repetition ran %d bits, want the calibrated %d", bits, want)
		}
		// Round r opens with arm r mod 3 and goes round-robin from there.
		r := (calls - 2) / 3
		i := (r + (calls-2)%3) % 3
		if hub != hubs[i] {
			t.Fatalf("round %d arm %d ran with another arm's hub", r, i)
		}
		switch i {
		case 0:
			return base[r], nil
		case 1:
			return base[r] * (1 - slow[r]/100), nil
		}
		return base[r] * 0.9, nil
	}
	row, err := measureOverhead(0.3, ModeExact, simBits, arms, run)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2+3*overheadReps {
		t.Fatalf("runner called %d times, want %d", calls, 2+3*overheadReps)
	}
	for k, entry := range log {
		rep, step := k/6, k%6
		name := string(rune('a' + (rep+step/2)%3))
		want := []string{"build ", "teardown "}[step%2] + name
		if entry != want {
			t.Fatalf("log[%d] (round %d) = %q, want %q", k, rep, entry, want)
		}
	}
	if len(log) != 6*overheadReps {
		t.Fatalf("%d builds+teardowns, want %d", len(log), 6*overheadReps)
	}

	sorted := append([]float64(nil), slow...)
	sort.Float64s(sorted)
	wantPct := []float64{0, sorted[overheadReps/2], 10}
	wantBest := []float64{130, 0, 130 * 0.9}
	for r := range base {
		wantBest[1] = math.Max(wantBest[1], base[r]*(1-slow[r]/100))
	}
	for i, a := range row.Arms {
		if a.Name != arms[i].Name {
			t.Errorf("arm %d named %q, want %q", i, a.Name, arms[i].Name)
		}
		if a.BitsPerSecond != wantBest[i] {
			t.Errorf("arm %s best %v, want %v", a.Name, a.BitsPerSecond, wantBest[i])
		}
		if math.Abs(a.OverheadPct-wantPct[i]) > 1e-9 {
			t.Errorf("arm %s overhead %v%%, want %v%%", a.Name, a.OverheadPct, wantPct[i])
		}
		// Counts come from the arm's last teardown, which saw the
		// repetition's simulated end.
		if want := (OverheadCounts{"rep": overheadReps - 1, "end": warmupBits + row.SimulatedBits}); !maps.Equal(a.Counts, want) {
			t.Errorf("arm %s counts %+v, want %+v", a.Name, a.Counts, want)
		}
	}
	if got, want := row.String(), fmt.Sprintf("[end=%d rep=%d]", warmupBits+row.SimulatedBits, overheadReps-1); !strings.Contains(got, want) {
		t.Errorf("row renders as %q, want counts %q in name order", got, want)
	}
	if row.Arms[1].OverheadPct >= 0 {
		t.Errorf("a measured speed-up must stay negative, got %+.2f%%", row.Arms[1].OverheadPct)
	}
}

func TestMeasureOverheadTearsDownOnRunError(t *testing.T) {
	var log []string
	arms, _ := scriptedArms(2, &log, nil)
	boom := errors.New("boom")
	calls := 0
	run := func(float64, SteppingMode, int64, *telemetry.Hub) (float64, error) {
		calls++
		if calls == 5 { // two calibration runs, round 0 (a, b), round 1 opens with b
			return 0, boom
		}
		return 1e9, nil
	}
	if _, err := measureOverhead(0.3, ModeExact, 1000, arms, run); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the run error", err)
	}
	want := []string{"build a", "teardown a", "build b", "teardown b", "build b", "teardown b"}
	if len(log) != len(want) {
		t.Fatalf("log = %q, want %q", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %q, want %q", log, want)
		}
	}
}

func TestMeasureOverheadTeardownError(t *testing.T) {
	var log []string
	closeErr := errors.New("close failed")
	arms, _ := scriptedArms(2, &log, closeErr)
	run := func(float64, SteppingMode, int64, *telemetry.Hub) (float64, error) { return 1e9, nil }
	if _, err := measureOverhead(0.3, ModeExact, 1000, arms, run); !errors.Is(err, closeErr) {
		t.Fatalf("err = %v, want the teardown error", err)
	}
	if len(log) != 2 {
		t.Fatalf("log = %q: the loop must stop at the first failed teardown", log)
	}
}
