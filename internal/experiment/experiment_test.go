package experiment

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"michican/internal/bus"
	"michican/internal/fsm"
	"michican/internal/mcu"
	"michican/internal/restbus"
	"michican/internal/trace"
)

// shortCfg keeps test runtimes low while spanning several bus-off episodes.
func shortCfg() Config {
	return Config{Rate: bus.Rate50k, Duration: 500 * time.Millisecond, Seed: 1}
}

func TestTable2AllExperiments(t *testing.T) {
	rows, err := Table2(shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8 (one per attacker ID across 6 experiments)", len(rows))
	}
	for _, r := range rows {
		if r.Episodes == 0 {
			t.Errorf("exp %d %s: no episodes", r.Exp, r.AttackerID)
		}
		// Every bus-off time must be within the paper's ballpark: above the
		// clean best case and below the deadline-safety discussion bound.
		if r.MeanBits < 1000 || r.MeanBits > 3000 {
			t.Errorf("exp %d %s: mean %0.f bits outside [1000,3000]", r.Exp, r.AttackerID, r.MeanBits)
		}
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	cfg := Config{Rate: bus.Rate50k, Duration: time.Second, Seed: 1}
	rows, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Table2Row{}
	for _, r := range rows {
		byKey[key(r)] = r
	}
	exp2 := byKey["2/0x173"]
	exp4 := byKey["4/0x064"]
	exp5a := byKey["5/0x066"]
	exp5b := byKey["5/0x067"]

	// Paper: experiment-5 bus-off grows ~50% over the single-attacker case
	// because the two campaigns intertwine, and 0x067 finishes slightly
	// earlier than 0x066.
	if exp5a.MeanBits <= exp4.MeanBits*1.2 {
		t.Errorf("exp5 (%.0f bits) should exceed exp4 (%.0f) by ≳20%%", exp5a.MeanBits, exp4.MeanBits)
	}
	if exp5a.MeanBits >= exp4.MeanBits*2 {
		t.Errorf("exp5 (%.0f bits) must not double exp4 (%.0f)", exp5a.MeanBits, exp4.MeanBits)
	}
	if exp5b.MeanBits >= exp5a.MeanBits {
		t.Errorf("0x067 (%.0f) should bus off slightly faster than 0x066 (%.0f)",
			exp5b.MeanBits, exp5a.MeanBits)
	}
	// Clean single-attacker cases sit near the theoretical 1248 bits.
	for _, r := range []Table2Row{exp2, exp4} {
		if r.MeanBits < 1100 || r.MeanBits > 1600 {
			t.Errorf("exp %d: %.0f bits, want ≈1248 (+stuff/interleave)", r.Exp, r.MeanBits)
		}
	}
}

func key(r Table2Row) string {
	return string(rune('0'+r.Exp)) + "/" + r.AttackerID.String()
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment(shortCfg(), 9); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTable3Theory(t *testing.T) {
	rows := Table3(Interruptions{})
	if len(rows) != 7 {
		t.Fatalf("got %d rows", len(rows))
	}
	if TheoryTotalBits != 1248 {
		t.Fatalf("theory total = %d, want 1248", TheoryTotalBits)
	}
	for _, r := range rows {
		if r.Exp == 2 || r.Exp == 4 || r.Exp == 6 {
			if r.TotalBits != 1248 {
				t.Errorf("exp %d clean total = %.0f, want 1248", r.Exp, r.TotalBits)
			}
		}
		if r.PassiveBits < r.ActiveBits {
			t.Errorf("exp %d: passive (%.0f) must exceed active (%.0f)", r.Exp, r.PassiveBits, r.ActiveBits)
		}
	}
}

func TestTable3WithInterruptions(t *testing.T) {
	clean := Table3(Interruptions{})
	busy := Table3(Interruptions{HighPriorityActive: 0.5, HighPriorityPassive: 0.5, LowPriorityPassive: 0.5})
	if busy[0].TotalBits <= clean[0].TotalBits {
		t.Error("interruptions must extend the experiment-1 prediction")
	}
}

func TestTable2MatchesTable3Bound(t *testing.T) {
	// Empirical clean-bus experiments must respect the theoretical band:
	// ≥ best case 16·(30+38)=1088, ≤ worst case 1248 plus stuff bits and
	// defender-frame interleaving.
	rows, err := RunExperiment(shortCfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].MeanBits < 1088-50 || rows[0].MeanBits > TheoryTotalBits+350 {
		t.Errorf("empirical %.0f vs theory band [1088, %d+350]", rows[0].MeanBits, TheoryTotalBits)
	}
}

func TestFig6Interleaving(t *testing.T) {
	res, err := Fig6(shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attempts) < 40 {
		t.Fatalf("only %d attempts decoded", len(res.Attempts))
	}
	// Paper's pattern: 0x066 (started first) runs its 16 error-active
	// attempts uninterrupted, then the campaigns interleave.
	for i := 0; i < 16; i++ {
		if res.Attempts[i].ID != 0x066 {
			t.Fatalf("attempt %d is %s; first 16 must be 0x066", i, res.Attempts[i].ID)
		}
	}
	if res.Attempts[16].ID != 0x067 {
		t.Error("attempt 17 should be 0x067 winning arbitration during 0x066's suspend")
	}
	// Both bus-off times exceed the single-attacker 1248 but stay below 2×.
	for _, bits := range []int64{res.BusOffBits66, res.BusOffBits67} {
		if bits < 1300 || bits > 2400 {
			t.Errorf("intertwined bus-off = %d bits, want within (1300, 2400)", bits)
		}
	}
	// 0x066 finishes after 0x067 started later but... per the paper 0x067's
	// bus-off time is slightly smaller.
	if res.BusOffBits67 >= res.BusOffBits66 {
		t.Errorf("0x067 (%d) should be smaller than 0x066 (%d)", res.BusOffBits67, res.BusOffBits66)
	}
}

func TestDetectionLatencyStudy(t *testing.T) {
	res, err := DetectionLatency(500, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectionRate != 1.0 {
		t.Errorf("detection rate = %f, want 1.0 (the paper verifies 100%%)", res.DetectionRate)
	}
	if res.MeanBits <= 0 || res.MeanBits >= 11 {
		t.Errorf("mean detection position = %f, want within (0,11)", res.MeanBits)
	}
	if res.MaxBits > 11 {
		t.Errorf("max detection position = %d > 11", res.MaxBits)
	}
	if _, err := DetectionLatency(0, 0, 1); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestDetectionLatencyDeterministic(t *testing.T) {
	a, err := DetectionLatency(200, 32, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DetectionLatency(200, 32, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanBits != b.MeanBits || a.DetectionRate != b.DetectionRate {
		t.Error("study not deterministic for a fixed seed")
	}
}

// TestDetectionStudyExact pins the Sec. V-B study and the detection sweep
// bit for bit, so a change to the FSM code that alters any draw, tree or
// statistic fails tier-1 rather than only the benchmark's golden digest.
func TestDetectionStudyExact(t *testing.T) {
	res, err := DetectionLatency(20000, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := DetectionResult{FSMs: 20000, DetectionRate: 1, MeanBits: 6.089845559892424, StdBits: 1.1836668088988833, MaxBits: 11, MeanFSMStates: 203.09450000000004}
	if res != want {
		t.Errorf("DetectionLatency(20000, 64, 7) = %#v\nwant %#v", res, want)
	}
	rows, err := DetectionSweep([]int{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 2048}, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := []DetectionSweepRow{
		{N: 1, FSMs: 300, MeanBits: 2.56710728277313, MaxBits: 11, MeanStates: 20.93999999999998},
		{N: 2, FSMs: 300, MeanBits: 3.243404409736402, MaxBits: 11, MeanStates: 29.046666666666678},
		{N: 4, FSMs: 300, MeanBits: 3.819614781884901, MaxBits: 11, MeanStates: 45.626666666666665},
		{N: 8, FSMs: 300, MeanBits: 4.57809150757979, MaxBits: 11, MeanStates: 74.64000000000003},
		{N: 16, FSMs: 300, MeanBits: 5.512418706803701, MaxBits: 11, MeanStates: 124.86666666666669},
		{N: 32, FSMs: 300, MeanBits: 6.43236830187658, MaxBits: 11, MeanStates: 199.23333333333338},
		{N: 64, FSMs: 300, MeanBits: 7.241880964498665, MaxBits: 11, MeanStates: 357.57333333333327},
		{N: 128, FSMs: 300, MeanBits: 8.1102169551865, MaxBits: 11, MeanStates: 557.6266666666667},
		{N: 256, FSMs: 300, MeanBits: 8.916614674139838, MaxBits: 11, MeanStates: 832.3133333333329},
		{N: 1024, FSMs: 300, MeanBits: 10.375668911155568, MaxBits: 11, MeanStates: 1524.0333333333333},
		{N: 2048, FSMs: 300, MeanBits: 11, MaxBits: 11, MeanStates: 23},
	}
	if !slices.Equal(rows, wantRows) {
		for i := range rows {
			if i >= len(wantRows) || rows[i] != wantRows[i] {
				t.Errorf("sweep row %d = %#v", i, rows[i])
			}
		}
		t.Fatalf("DetectionSweep rows differ from the pinned values")
	}
}

// TestDetectionSizeLimit: IVNs larger than the 2048-ID space, fewer than two
// ECUs per study IVN and empty sweep points are rejected up front with an
// error naming the limit, while the whole ID space itself still works.
func TestDetectionSizeLimit(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"maxECUs=2049", func() error { _, err := DetectionLatency(10, 2049, 1); return err }(), "2048"},
		{"sweep N=4096", func() error { _, err := DetectionSweep([]int{2, 4096}, 10, 1); return err }(), "2048"},
		{"maxECUs=1", func() error { _, err := DetectionLatency(10, 1, 1); return err }(), "maxECUs >= 2"},
		{"maxECUs=0", func() error { _, err := DetectionLatency(10, 0, 1); return err }(), "maxECUs >= 2"},
		{"perN=0", func() error { _, err := DetectionSweep([]int{2}, 0, 1); return err }(), "perN > 0"},
		{"perN=-1", func() error { _, err := DetectionSweep([]int{2}, -1, 1); return err }(), "perN > 0"},
	} {
		if tc.err == nil || errors.Is(tc.err, fsm.ErrEmptyIVN) || !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error naming %q", tc.name, tc.err, tc.want)
		}
	}
	res, err := DetectionLatency(4, 2048, 1)
	if err != nil || res.DetectionRate != 1 {
		t.Errorf("maxECUs = 2048: %+v, %v", res, err)
	}
}

func TestMultiAttackerSweep(t *testing.T) {
	rows, err := MultiAttacker(shortCfg(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].TotalBits <= rows[i-1].TotalBits {
			t.Errorf("total bus-off must grow with A: A=%d %d vs A=%d %d",
				rows[i-1].Attackers, rows[i-1].TotalBits, rows[i].Attackers, rows[i].TotalBits)
		}
	}
	// Paper: sub-linear growth ("the bus-off time does not double with the
	// number of attackers"), A=4 feasible, A=5 not.
	if rows[1].TotalBits >= 2*rows[0].TotalBits {
		t.Errorf("A=2 (%d) must be less than 2× A=1 (%d)", rows[1].TotalBits, rows[0].TotalBits)
	}
	if !rows[3].Feasible {
		t.Errorf("A=4 should remain feasible (%d bits)", rows[3].TotalBits)
	}
	if rows[4].Feasible {
		t.Errorf("A=5 should render the bus inoperable (%d bits)", rows[4].TotalBits)
	}
	// Paper's absolute anchors: A=3 → ~3515 bits, A=4 → ~4660.
	if rows[2].TotalBits < 3000 || rows[2].TotalBits > 4000 {
		t.Errorf("A=3 = %d bits, paper ≈3515", rows[2].TotalBits)
	}
	if rows[3].TotalBits < 4200 || rows[3].TotalBits > 5000 {
		t.Errorf("A=4 = %d bits, paper ≈4660", rows[3].TotalBits)
	}
}

func TestCPUUtilizationStudy(t *testing.T) {
	cfg := Config{Rate: bus.Rate50k, Duration: 300 * time.Millisecond, Seed: 1}
	full, err := CPUUtilization(cfg, mcu.ArduinoDue, bus.Rate125k, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 8 {
		t.Fatalf("rows = %d, want 8 (4 vehicles × 2 buses)", len(full))
	}
	light, err := CPUUtilization(cfg, mcu.ArduinoDue, bus.Rate125k, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if full[i].CombinedLoad <= light[i].CombinedLoad {
			t.Errorf("%s/%s: full load (%.1f%%) must exceed light (%.1f%%)",
				full[i].Vehicle, full[i].Bus, full[i].CombinedLoad*100, light[i].CombinedLoad*100)
		}
		if !full[i].Reliable {
			t.Errorf("%s/%s: Due must be reliable at 125 kbit/s", full[i].Vehicle, full[i].Bus)
		}
		if full[i].CombinedLoad < 0.25 || full[i].CombinedLoad > 0.60 {
			t.Errorf("full combined load %.1f%% outside the paper's neighborhood (~40%%)",
				full[i].CombinedLoad*100)
		}
	}
	// The Due must NOT be reliable at 250 kbit/s (Sec. V-D).
	due250, err := CPUUtilization(cfg, mcu.ArduinoDue, bus.Rate250k, false)
	if err != nil {
		t.Fatal(err)
	}
	overruns := 0
	for _, r := range due250 {
		if !r.Reliable {
			overruns++
		}
	}
	if overruns == 0 {
		t.Error("Due at 250 kbit/s should overrun the bit time on at least some buses")
	}
	// The S32K144 runs 500 kbit/s reliably (Sec. VI-B).
	nxp, err := CPUUtilization(cfg, mcu.NXPS32K144, bus.Rate500k, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range nxp {
		if !r.Reliable {
			t.Errorf("S32K144 must be reliable at 500 kbit/s (%s/%s)", r.Vehicle, r.Bus)
		}
	}
}

func TestBusLoadComparison(t *testing.T) {
	rows, err := BusLoad(Config{Rate: bus.Rate50k, Duration: 800 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]BusLoadRow{}
	for _, r := range rows {
		byName[r.System] = r
	}
	none, mich, par := byName["none"], byName["MichiCAN"], byName["Parrot"]

	if none.AttackerSilenced {
		t.Error("undefended bus must not silence the attacker")
	}
	if none.VictimMissRate < 0.2 {
		t.Errorf("undefended miss rate %.1f%%, expected heavy starvation", none.VictimMissRate*100)
	}
	if !mich.AttackerSilenced || !par.AttackerSilenced {
		t.Fatal("both defenses must silence the attacker")
	}
	if mich.VictimMissRate > 0.05 {
		t.Errorf("MichiCAN miss rate %.1f%%, want ≈0", mich.VictimMissRate*100)
	}
	// Sec. V-E: Parrot's flood saturates the bus; MichiCAN's spike stays
	// well below, and MichiCAN buses the attacker off faster.
	if par.PeakWindowLoad < 0.9 {
		t.Errorf("Parrot peak load %.1f%%, want ≳90%%", par.PeakWindowLoad*100)
	}
	if mich.PeakWindowLoad >= par.PeakWindowLoad {
		t.Error("MichiCAN peak load must stay below Parrot's")
	}
	if mich.BusOffBits >= par.BusOffBits {
		t.Errorf("MichiCAN bus-off (%d) must beat Parrot (%d)", mich.BusOffBits, par.BusOffBits)
	}
}

func TestParkSenseOnVehicle(t *testing.T) {
	res, err := ParkSense(Config{Rate: bus.Rate50k, Duration: time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Phase1Unavailable {
		t.Error("the targeted DoS must disable ParkSense without a defense")
	}
	if !res.Phase2Restored {
		t.Error("MichiCAN must restore ParkSense")
	}
	if res.Phase2Attempts > 32 {
		t.Errorf("eradication took %d attempts, paper says within 32", res.Phase2Attempts)
	}
	if len(res.Timeline) < 2 {
		t.Errorf("expected unavailable→available transitions, got %v", res.Timeline)
	}
}

func TestTable1Properties(t *testing.T) {
	rows := Table1()
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	var mich, parrotRow *Table1Row
	for i := range rows {
		switch rows[i].System {
		case "MichiCAN":
			mich = &rows[i]
		case "Parrot+ [18]":
			parrotRow = &rows[i]
		}
	}
	if mich == nil || parrotRow == nil {
		t.Fatal("MichiCAN and Parrot rows required")
	}
	if mich.BackwardCompatible != Yes || mich.RealTime != Yes || mich.Eradication != Yes {
		t.Error("MichiCAN row must be all-yes")
	}
	if mich.TrafficOverhead >= parrotRow.TrafficOverhead == false {
		// MichiCAN's overhead class must be strictly better than Parrot's.
	}
	if !(mich.TrafficOverhead < parrotRow.TrafficOverhead) {
		t.Error("MichiCAN overhead must beat Parrot's very-high")
	}
	if !mich.MeasuredHere || !parrotRow.MeasuredHere {
		t.Error("both implemented systems must be marked measured")
	}
	out := FormatTable1(rows)
	if len(out) == 0 {
		t.Error("empty table rendering")
	}
}

func TestScaleMatrixToLoad(t *testing.T) {
	m := restbus.Buses(restbus.VehD)[0]
	scaled := scaleMatrixToLoad(m, bus.Rate50k, 0.2)
	load := scaled.Load(bus.Rate50k)
	if load > 0.21 {
		t.Errorf("scaled load %.3f, want ≤0.20", load)
	}
	// Already-light matrices are untouched.
	same := scaleMatrixToLoad(m, bus.Rate500k, 0.9)
	if same.Load(bus.Rate500k) != m.Load(bus.Rate500k) {
		t.Error("light matrix must pass through unchanged")
	}
}

func TestEpisodeGrouping(t *testing.T) {
	// Synthesize two attempts close together and one far away: two episodes.
	events := []trace.Event{
		{Kind: trace.ErrorEvent, ID: 0x100, IDComplete: true, Start: 0, End: 30},
		{Kind: trace.ErrorEvent, ID: 0x100, IDComplete: true, Start: 60, End: 95},
		{Kind: trace.ErrorEvent, ID: 0x100, IDComplete: true, Start: 5000, End: 5030},
	}
	eps := episodesOf(events, 0x100)
	if len(eps) != 2 {
		t.Fatalf("episodes = %d, want 2", len(eps))
	}
	if eps[0].Attempts != 2 || eps[1].Attempts != 1 {
		t.Errorf("attempt counts = %d/%d", eps[0].Attempts, eps[1].Attempts)
	}
	if eps[0].Bits() != 96 {
		t.Errorf("episode span = %d", eps[0].Bits())
	}
	if episodesOf(events, 0x999) != nil {
		t.Error("unknown ID must yield no episodes")
	}
}

func TestValidateTable3(t *testing.T) {
	v, err := ValidateTable3(Config{Rate: bus.Rate50k, Duration: 2 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v.EmpiricalBits < 1200 || v.EmpiricalBits > 2500 {
		t.Errorf("empirical = %.0f bits", v.EmpiricalBits)
	}
	if v.PredictedBits < TheoryTotalBits {
		t.Errorf("prediction %.0f below the clean bound %d", v.PredictedBits, TheoryTotalBits)
	}
	// The closed-loop check: prediction within 15% of measurement.
	if diff := abs(v.PredictedBits-v.EmpiricalBits) / v.EmpiricalBits; diff > 0.15 {
		t.Errorf("theory and measurement diverge by %.1f%%: %s", diff*100, v.String())
	}
	t.Log(v.String())
}
