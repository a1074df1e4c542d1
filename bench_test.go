package michican

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Sec. V), plus micro-benchmarks of the hot simulation paths and
// ablations of MichiCAN's design choices. Each evaluation benchmark reports
// the paper's headline number as a custom metric so `go test -bench` output
// doubles as a results table.

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"michican/internal/attack"
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/core"
	"michican/internal/experiment"
	"michican/internal/fsm"
	"michican/internal/mcu"
	"michican/internal/trace"
)

func benchCfg() experiment.Config {
	return experiment.Config{Rate: bus.Rate50k, Duration: 500 * time.Millisecond, Seed: 1}
}

// BenchmarkTable1Properties regenerates the Table-I comparison matrix.
func BenchmarkTable1Properties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiment.FormatTable1(experiment.Table1()); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2BusOff regenerates Table II (all six experiments) and
// reports the experiment-2 mean bus-off time (paper: 24.2 ms at 50 kbit/s).
func BenchmarkTable2BusOff(b *testing.B) {
	var meanMs float64
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Table2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Exp == 2 {
				meanMs = float64(r.Mean) / float64(time.Millisecond)
			}
		}
	}
	b.ReportMetric(meanMs, "exp2-busoff-ms")
}

// BenchmarkTable3Theory evaluates the closed-form model (paper: 1248 bits).
func BenchmarkTable3Theory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.Table3(experiment.Interruptions{})
		if rows[1].TotalBits != 1248 {
			b.Fatalf("theory = %.0f", rows[1].TotalBits)
		}
	}
	b.ReportMetric(float64(experiment.TheoryTotalBits), "theory-bits")
}

// BenchmarkFig6Pattern regenerates the Experiment-5 interleaving (paper:
// 0x066 39.0 ms, 0x067 35.4 ms).
func BenchmarkFig6Pattern(b *testing.B) {
	var bits66, bits67 int64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		bits66, bits67 = res.BusOffBits66, res.BusOffBits67
	}
	b.ReportMetric(float64(bits66), "busoff-066-bits")
	b.ReportMetric(float64(bits67), "busoff-067-bits")
}

// BenchmarkDetectionLatency runs the Sec. V-B random-FSM study (paper:
// 160,000 FSMs, 100% detection, mean position ≈ 9; scaled per iteration).
func BenchmarkDetectionLatency(b *testing.B) {
	var mean, rate float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.DetectionLatency(2000, 64, 1)
		if err != nil {
			b.Fatal(err)
		}
		mean, rate = res.MeanBits, res.DetectionRate
	}
	b.ReportMetric(mean, "mean-detect-bits")
	b.ReportMetric(rate*100, "detect-rate-%")
}

// BenchmarkMultiAttacker sweeps A = 1..5 (paper: 3515 bits at A=3, 4660 at
// A=4, A≥5 inoperable).
func BenchmarkMultiAttacker(b *testing.B) {
	var a3, a4 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiment.MultiAttacker(benchCfg(), 4)
		if err != nil {
			b.Fatal(err)
		}
		a3, a4 = float64(rows[2].TotalBits), float64(rows[3].TotalBits)
	}
	b.ReportMetric(a3, "A3-bits")
	b.ReportMetric(a4, "A4-bits")
}

// BenchmarkCPUUtilization runs the Sec. V-D study on the Arduino Due at
// 125 kbit/s (paper: ≈40% full scenario).
func BenchmarkCPUUtilization(b *testing.B) {
	cfg := experiment.Config{Rate: bus.Rate50k, Duration: 200 * time.Millisecond, Seed: 1}
	var combined float64
	for i := 0; i < b.N; i++ {
		rows, err := experiment.CPUUtilization(cfg, mcu.ArduinoDue, bus.Rate125k, false)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.CombinedLoad
		}
		combined = sum / float64(len(rows))
	}
	b.ReportMetric(combined*100, "due-125k-full-%")
}

// BenchmarkBusLoad runs the Sec. V-E comparison (paper: Parrot ≈97.7%,
// MichiCAN ≥2× lower during bus-off attempts).
func BenchmarkBusLoad(b *testing.B) {
	var parrotPeak, michPeak float64
	for i := 0; i < b.N; i++ {
		rows, err := experiment.BusLoad(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.System {
			case "Parrot":
				parrotPeak = r.PeakWindowLoad
			case "MichiCAN":
				michPeak = r.PeakWindowLoad
			}
		}
	}
	b.ReportMetric(parrotPeak*100, "parrot-peak-%")
	b.ReportMetric(michPeak*100, "michican-peak-%")
}

// BenchmarkParkSense runs the on-vehicle test (paper: eradicated within 32
// attempts).
func BenchmarkParkSense(b *testing.B) {
	var attempts float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.ParkSense(experiment.Config{
			Rate: bus.Rate50k, Duration: time.Second, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Phase2Restored {
			b.Fatal("ParkSense not restored")
		}
		attempts = float64(res.Phase2Attempts)
	}
	b.ReportMetric(attempts, "eradication-attempts")
}

// BenchmarkDefenseComparison measures the Table-I head-to-head (IDS vs
// Parrot vs MichiCAN against the same spoofer).
func BenchmarkDefenseComparison(b *testing.B) {
	var michDetect, parrotDetect float64
	for i := 0; i < b.N; i++ {
		rows, err := experiment.DefenseComparison(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.System {
			case "MichiCAN":
				michDetect = float64(r.DetectionBits)
			case "Parrot":
				parrotDetect = float64(r.DetectionBits)
			}
		}
	}
	b.ReportMetric(michDetect, "michican-detect-bits")
	b.ReportMetric(parrotDetect, "parrot-detect-bits")
}

// BenchmarkDetectionSweep measures the detection-position growth with IVN
// size (the context for the paper's aggregate mean of ≈9 bits).
func BenchmarkDetectionSweep(b *testing.B) {
	var dense float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.DetectionSweep([]int{2, 32, 256}, 100, 1)
		if err != nil {
			b.Fatal(err)
		}
		dense = rows[len(rows)-1].MeanBits
	}
	b.ReportMetric(dense, "N256-mean-bits")
}

// BenchmarkSplitScenario measures the Sec. IV-A light/full split: protection
// preserved, CPU saved.
func BenchmarkSplitScenario(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.SplitScenario(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if !res.DoSEradicated || !res.SpoofLowEradicated {
			b.Fatal("split deployment lost protection")
		}
		saved = (res.FullLoad - res.LightLoad) * 100
	}
	b.ReportMetric(saved, "cpu-saved-points")
}

// --- Ablation benchmarks: the design choices DESIGN.md calls out. ---

// ablationRun buses one attacker off (or times out) with a configurable
// defense and returns (busOffBits, eradicated).
func ablationRun(b *testing.B, cfg core.Config) (int64, bool) {
	b.Helper()
	v, err := fsm.NewIVN([]can.ID{0x173})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := fsm.NewDetectionSet(v, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg.FSM = fsm.Build(ds)
	def, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	bb := bus.New(bus.Rate50k)
	defCtl := controller.New(controller.Config{Name: "defender", AutoRecover: true})
	bb.Attach(core.NewECU(defCtl, def))
	att := attack.NewTargetedDoS("attacker", 0x064)
	bb.Attach(att)
	start := bb.Now()
	ok := bb.RunUntil(func() bool {
		return att.Controller().Stats().BusOffEvents > 0
	}, 10_000)
	return int64(bb.Now() - start), ok
}

// BenchmarkAblationPullWidth compares counterattack pull widths: the paper's
// 7-bit window always covers the worst case (6 injected dominant bits);
// narrower pulls still work when the attacker's frame yields an early error
// but are not guaranteed in general.
func BenchmarkAblationPullWidth(b *testing.B) {
	for _, pull := range []int{1, 3, 7} {
		pull := pull
		b.Run(map[int]string{1: "pull-1bit", 3: "pull-3bit", 7: "pull-7bit"}[pull], func(b *testing.B) {
			var bits float64
			erad := true
			for i := 0; i < b.N; i++ {
				got, ok := ablationRun(b, core.Config{Name: "ablate", PullBits: pull})
				bits = float64(got)
				erad = erad && ok
			}
			if erad {
				b.ReportMetric(bits, "busoff-bits")
			} else {
				b.ReportMetric(0, "busoff-bits(failed)")
			}
		})
	}
}

// BenchmarkAblationEarlyFSMStop quantifies Algorithm 1's early-stop (line
// 11): cycles with the FSM halted at the first decision versus stepping all
// 11 ID bits.
func BenchmarkAblationEarlyFSMStop(b *testing.B) {
	ids := make([]can.ID, 0, 32)
	for i := 0; i < 32; i++ {
		ids = append(ids, can.ID(0x40+i*20))
	}
	v, err := fsm.NewIVN(ids)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := fsm.NewDetectionSet(v, 31)
	if err != nil {
		b.Fatal(err)
	}
	machine := fsm.Build(ds)
	b.Run("early-stop", func(b *testing.B) {
		steps := 0
		for i := 0; i < b.N; i++ {
			for id := can.ID(0); id < 256; id++ {
				machine.Reset()
				for bit := 0; bit < can.IDBits; bit++ {
					if machine.Decided() != fsm.Undecided {
						break // Algorithm 1 line 11
					}
					machine.Step(id.Bit(bit))
					steps++
				}
			}
		}
		b.ReportMetric(float64(steps)/float64(b.N)/256, "fsm-steps/frame")
	})
	b.Run("always-run", func(b *testing.B) {
		steps := 0
		for i := 0; i < b.N; i++ {
			for id := can.ID(0); id < 256; id++ {
				machine.Reset()
				for bit := 0; bit < can.IDBits; bit++ {
					machine.Step(id.Bit(bit))
					steps++
				}
			}
		}
		b.ReportMetric(float64(steps)/float64(b.N)/256, "fsm-steps/frame")
	})
}

// BenchmarkAblationFullVsLight compares the CPU cost of the two deployment
// scenarios of Sec. IV-A on the Arduino Due.
func BenchmarkAblationFullVsLight(b *testing.B) {
	cfg := experiment.Config{Rate: bus.Rate50k, Duration: 100 * time.Millisecond, Seed: 1}
	for _, light := range []bool{false, true} {
		name := "full"
		if light {
			name = "light"
		}
		light := light
		b.Run(name, func(b *testing.B) {
			var load float64
			for i := 0; i < b.N; i++ {
				rows, err := experiment.CPUUtilization(cfg, mcu.ArduinoDue, bus.Rate125k, light)
				if err != nil {
					b.Fatal(err)
				}
				load = rows[0].CombinedLoad
			}
			b.ReportMetric(load*100, "combined-%")
		})
	}
}

// --- Micro-benchmarks of the hot paths. ---

// BenchmarkBusStep measures the simulator's per-bit cost with a realistic
// node count.
func BenchmarkBusStep(b *testing.B) {
	bb := bus.New(bus.Rate500k)
	for i := 0; i < 8; i++ {
		bb.Attach(controller.New(controller.Config{Name: "ecu", AutoRecover: true}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.Step()
	}
}

// BenchmarkControllerFrameExchange measures one complete frame transfer
// between two controllers.
func BenchmarkControllerFrameExchange(b *testing.B) {
	bb := bus.New(bus.Rate500k)
	tx := controller.New(controller.Config{Name: "tx", AutoRecover: true})
	rx := controller.New(controller.Config{Name: "rx", AutoRecover: true})
	bb.Attach(tx)
	bb.Attach(rx)
	f := can.Frame{ID: 0x123, Data: make([]byte, 8)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.Enqueue(f); err != nil {
			b.Fatal(err)
		}
		for tx.PendingTx() > 0 {
			bb.Step()
		}
	}
}

// BenchmarkFrameEncode measures wire serialization.
func BenchmarkFrameEncode(b *testing.B) {
	f := can.Frame{ID: 0x173, Data: make([]byte, 8)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if bits := can.WireBits(&f, can.Dominant); len(bits) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFrameDecode measures wire parsing.
func BenchmarkFrameDecode(b *testing.B) {
	f := can.Frame{ID: 0x173, Data: make([]byte, 8)}
	wire := can.WireBits(&f, can.Dominant)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := can.DecodeWire(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFSMBuild measures offline FSM generation for a 64-ECU IVN.
func BenchmarkFSMBuild(b *testing.B) {
	v, err := fsm.NewIVN(seqIDs(64))
	if err != nil {
		b.Fatal(err)
	}
	ds, err := fsm.NewDetectionSet(v, 63)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := fsm.Build(ds); m.Size() == 0 {
			b.Fatal("empty FSM")
		}
	}
}

// BenchmarkFSMStep measures one streaming detection step.
func BenchmarkFSMStep(b *testing.B) {
	v, err := fsm.NewIVN(seqIDs(64))
	if err != nil {
		b.Fatal(err)
	}
	ds, err := fsm.NewDetectionSet(v, 63)
	if err != nil {
		b.Fatal(err)
	}
	m := fsm.Build(ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		m.Step(can.Dominant)
	}
}

// BenchmarkDefenseObserve measures the per-bit cost of Algorithm 1.
func BenchmarkDefenseObserve(b *testing.B) {
	v, err := fsm.NewIVN(seqIDs(32))
	if err != nil {
		b.Fatal(err)
	}
	ds, err := fsm.NewDetectionSet(v, 31)
	if err != nil {
		b.Fatal(err)
	}
	def, err := core.New(core.Config{Name: "bench", FSM: fsm.Build(ds)})
	if err != nil {
		b.Fatal(err)
	}
	f := can.Frame{ID: 0x100, Data: make([]byte, 8)}
	wire := can.WireBits(&f, can.Dominant)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		def.Observe(bus.BitTime(i), wire[i%len(wire)])
	}
}

// BenchmarkTraceDecode measures logic-analyzer decoding of a 2-second
// recording.
func BenchmarkTraceDecode(b *testing.B) {
	bb := bus.New(bus.Rate50k)
	rec := trace.NewRecorder()
	bb.AttachTap(rec)
	tx := controller.New(controller.Config{Name: "tx", AutoRecover: true})
	rx := controller.New(controller.Config{Name: "rx", AutoRecover: true})
	bb.Attach(tx)
	bb.Attach(rx)
	for i := 0; i < 100; i++ {
		_ = tx.Enqueue(can.Frame{ID: 0x100, Data: make([]byte, 8)})
	}
	bb.Run(20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if events := trace.Decode(rec.Bits(), rec.Start()); len(events) == 0 {
			b.Fatal("no events")
		}
	}
}

func seqIDs(n int) []can.ID {
	out := make([]can.ID, n)
	for i := range out {
		out[i] = can.ID(0x40 + i*16)
	}
	return out
}

// BenchmarkFDFrameExchange measures a 64-byte CAN FD transfer between two
// controllers (the extension's hot path).
func BenchmarkFDFrameExchange(b *testing.B) {
	bb := bus.New(bus.Rate500k)
	tx := controller.New(controller.Config{Name: "tx", AutoRecover: true})
	rx := controller.New(controller.Config{Name: "rx", AutoRecover: true})
	bb.Attach(tx)
	bb.Attach(rx)
	f := can.Frame{ID: 0x123, FD: true, Data: make([]byte, 64)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.Enqueue(f); err != nil {
			b.Fatal(err)
		}
		for tx.PendingTx() > 0 {
			bb.Step()
		}
	}
}

// BenchmarkFDEncode / BenchmarkFDDecode measure the FD wire codec.
func BenchmarkFDEncode(b *testing.B) {
	f := can.Frame{ID: 0x173, FD: true, Data: make([]byte, 64)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if bits := can.WireBits(&f, can.Dominant); len(bits) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFDDecode(b *testing.B) {
	f := can.Frame{ID: 0x173, FD: true, Data: make([]byte, 64)}
	wire := can.WireBits(&f, can.Dominant)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := can.DecodeWire(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fast-forward and parallel-runner benchmarks (the tentpole's claims). ---

// ffScenarioBus builds the fast-forward benchmark scenario via the shared
// experiment.ThroughputScenario construction (michican-bench -json measures
// the same bus, so the numbers stay comparable).
func ffScenarioBus(b *testing.B, target float64, mode experiment.SteppingMode) *bus.Bus {
	b.Helper()
	bb, err := experiment.ThroughputScenario(target, mode)
	if err != nil {
		b.Fatal(err)
	}
	return bb
}

// BenchmarkBusFastForward measures simulated-bits-per-second across the
// four stepping modes — exact per-bit, idle fast-forward only (the PR1
// baseline), idle plus the committed-span (contend) path, and the full
// ladder topped by the compiled-splice tier — on restbus scenarios at three offered loads: a
// 2% parking/diagnostic load where the bus is almost entirely idle, the
// 30% prototype load of the online experiments, and a saturated 60% load.
// Under idle-FF alone every busy bit is exact-stepped, so its win shrinks
// with load (Amdahl); the contend path batches committed frame spans —
// uncontended mid-frame windows, arbitration fights and pending-SOF
// windows — leaving only the ACK slot and enqueue bits on the exact path; the splice tier lifts whole precompiled frame windows over
// the per-bit machinery entirely. The scenario is stationary, so each
// iteration extends the same simulation by two seconds of bus time.
func BenchmarkBusFastForward(b *testing.B) {
	const bitsPerIter = 100_000 // 2 s of bus time at 50 kbit/s
	for _, load := range []struct {
		name   string
		target float64
	}{{"load2", 0.02}, {"load30", 0.30}, {"load60", 0.60}} {
		for r, mode := range experiment.SteppingModes {
			// Mode r tops the bus ladder at rung r.
			top := bus.Rung(r)
			load, mode := load, mode
			b.Run(load.name+"/"+string(mode), func(b *testing.B) {
				bb := ffScenarioBus(b, load.target, mode)
				// One untimed iteration lets the plan caches and the defense's
				// splice summaries start filling before the timed window.
				bb.Run(bitsPerIter)
				// Re-collect per mode run so garbage left by warm-up (or by the
				// previous cell) is not charged to this mode's timed window.
				runtime.GC()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bb.Run(bitsPerIter)
				}
				b.StopTimer()
				b.ReportMetric(float64(bitsPerIter)*float64(b.N)/b.Elapsed().Seconds(), "bits/s")
				if top >= bus.RungIdle && bb.IdleForwardedBits() == 0 {
					b.Fatal("idle fast path never engaged")
				}
				// A warm splice tier takes whole frame windows before the
				// contend path is asked, so it may carry nothing on a
				// splice-ff bus.
				if top == bus.RungContend && bb.ContendForwardedBits() == 0 {
					b.Fatal("contend fast path never engaged")
				}
				if top < bus.RungContend && bb.ContendForwardedBits() != 0 {
					b.Fatal("contend path engaged while disabled")
				}
				if top == bus.RungSplice && bb.SpliceForwardedBits() == 0 {
					b.Fatal("splice fast path never engaged")
				}
				if top < bus.RungSplice && bb.SpliceForwardedBits() != 0 {
					b.Fatal("splice path engaged while disabled")
				}
				if top == bus.RungExact && bb.FastForwardedBits() != 0 {
					b.Fatal("exact path fast-forwarded")
				}
			})
		}
	}
}

// BenchmarkParallelTable2 runs all six Table-II scenarios serially versus on
// the GOMAXPROCS-bounded trial runner. The rows are checked identical once
// before timing — the speedup must not come at the cost of determinism.
func BenchmarkParallelTable2(b *testing.B) {
	serialCfg := benchCfg()
	serialCfg.Workers = 1
	parallelCfg := benchCfg()
	parallelCfg.Workers = runtime.GOMAXPROCS(0)

	serialRows, err := experiment.Table2(serialCfg)
	if err != nil {
		b.Fatal(err)
	}
	parallelRows, err := experiment.Table2(parallelCfg)
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(serialRows, parallelRows) {
		b.Fatal("parallel rows differ from serial rows")
	}

	for _, mode := range []struct {
		name string
		cfg  experiment.Config
	}{{"serial", serialCfg}, {"parallel", parallelCfg}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiment.Table2(mode.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
