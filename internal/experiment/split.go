package experiment

import (
	"fmt"
	"time"

	"michican/internal/attack"
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/core"
	"michican/internal/fsm"
	"michican/internal/mcu"
)

// SplitResult summarizes the Sec. IV-A split deployment: the IVN 𝔼 is split
// into a lower-priority half 𝔼₁ running only the light scenario (spoof
// detection on the own ID) and an upper half 𝔼₂ running the full scenario.
// DoS coverage is preserved because every ID below any 𝔼₂ member is inside
// some full detection range, while the 𝔼₁ ECUs save most of their CPU.
type SplitResult struct {
	// ECUs is the IVN size.
	ECUs int
	// DoSEradicated reports whether a DoS attacker below every ID was still
	// bused off with only 𝔼₂ running the full scenario.
	DoSEradicated bool
	// SpoofLowEradicated reports whether spoofing an 𝔼₁ (light) member was
	// eradicated by that member's own light defense.
	SpoofLowEradicated bool
	// FullLoad / LightLoad are the combined CPU loads (Arduino Due at
	// 125 kbit/s) of a representative full-scenario and light-scenario ECU
	// during the benign phase.
	FullLoad, LightLoad float64
}

// String renders the result.
func (r SplitResult) String() string {
	return fmt.Sprintf("N=%d  DoS eradicated=%v  low-half spoof eradicated=%v  CPU full=%.1f%% light=%.1f%%",
		r.ECUs, r.DoSEradicated, r.SpoofLowEradicated, r.FullLoad*100, r.LightLoad*100)
}

// SplitScenario builds a 16-ECU IVN split per Sec. IV-A and verifies the
// paper's two claims: the network stays protected against DoS (the full
// half covers it) and against spoofing of light members (their own light
// FSMs cover that), while the light half runs with a fraction of the CPU.
func SplitScenario(cfg Config) (SplitResult, error) {
	cfg = cfg.Defaults()
	const n = 16
	ids := make([]can.ID, n)
	for i := range ids {
		ids[i] = can.ID(0x080 + i*0x28)
	}
	ivn, err := fsm.NewIVN(ids)
	if err != nil {
		return SplitResult{}, err
	}

	b := bus.New(cfg.Rate)
	if err := applyMode(b, cfg.Mode); err != nil {
		return SplitResult{}, err
	}
	// Benign phase: every ECU broadcasts periodically, member i at phase
	// i·period/n; measure CPU loads.
	period := cfg.Rate.Bits(40 * time.Millisecond)
	members := make([]*core.ECU, n)
	for i := 0; i < n; i++ {
		var ds *fsm.DetectionSet
		if i < n/2 {
			ds, err = fsm.NewSpoofOnlySet(ivn, i) // 𝔼₁: light
		} else {
			ds, err = fsm.NewDetectionSet(ivn, i) // 𝔼₂: full
		}
		if err != nil {
			return SplitResult{}, err
		}
		ctl := controller.New(controller.Config{Name: fmt.Sprintf("ecu%02d", i), AutoRecover: true})
		def, err := core.New(core.Config{
			Name:             fmt.Sprintf("ecu%02d/michican", i),
			FSM:              fsm.Build(ds),
			Profile:          mcu.ArduinoDue,
			SelfTransmitting: ctl.Transmitting,
		})
		if err != nil {
			return SplitResult{}, err
		}
		members[i] = core.NewECU(ctl, def)
		frame := can.Frame{ID: ids[i], Data: []byte{byte(i)}}
		members[i].SetSchedule(core.Schedule{
			Period: period,
			First:  bus.BitTime(int64(i) * period / n),
			Frame:  func() can.Frame { return frame },
		})
		b.Attach(members[i])
	}

	res := SplitResult{ECUs: n}
	b.Run(cfg.Rate.Bits(500 * time.Millisecond))
	// The attacks below run without benign traffic.
	for _, m := range members {
		m.SetSchedule(core.Schedule{})
	}
	// CPU utilization on a representative light (index 0) and full (index
	// n-1, the largest range) member. Metering here runs at the 50 kbit/s
	// prototype rate scaled to 125k for comparability with Sec. V-D.
	res.LightLoad = members[0].Defense.Meter().CombinedLoad(int(bus.Rate125k))
	res.FullLoad = members[n-1].Defense.Meter().CombinedLoad(int(bus.Rate125k))

	// Attack 1: a DoS below everyone — only the full half can see it.
	dos := attack.NewTargetedDoS("dos", 0x010)
	b.Attach(dos)
	deadline := cfg.Rate.Bits(2 * time.Second)
	res.DoSEradicated = b.RunUntil(func() bool {
		return dos.Controller().Stats().BusOffEvents > 0
	}, deadline)
	b.Detach(dos)
	b.Run(20)

	// Attack 2: spoof a light member's own ID — only its own light FSM
	// covers it (every full range excludes legitimate IDs).
	spoof := attack.NewFabrication("spoof", ids[2], []byte{0xFF, 0xFF}, 0)
	b.Attach(spoof)
	res.SpoofLowEradicated = b.RunUntil(func() bool {
		return spoof.Controller().Stats().BusOffEvents > 0
	}, deadline)
	return res, nil
}
