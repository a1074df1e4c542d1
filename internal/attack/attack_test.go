package attack

import (
	"math/rand"
	"testing"
	"time"

	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/restbus"
)

// victimBus builds a bus with one periodic victim ECU (ID 0x260, 20ms) and
// returns the bus and the victim's replayer.
func victimBus(rate bus.Rate) (*bus.Bus, *restbus.Replayer) {
	b := bus.New(rate)
	m := &restbus.Matrix{Vehicle: "t", Bus: "t", Messages: []restbus.Message{
		{ID: 0x260, Transmitter: "victim", DLC: 8, Period: 20 * time.Millisecond},
	}}
	v := restbus.NewReplayer("victim", m, rate, nil)
	b.Attach(v)
	return b, v
}

func TestTraditionalDoSStarvesEverything(t *testing.T) {
	b, victim := victimBus(bus.Rate500k)
	att := NewTraditionalDoS("dos")
	b.Attach(att)
	b.RunFor(100 * time.Millisecond)

	if att.Controller().Stats().TxSuccess < 100 {
		t.Errorf("flood transmitted only %d frames", att.Controller().Stats().TxSuccess)
	}
	if victim.Stats().Transmitted > 1 {
		t.Errorf("victim transmitted %d frames under a 0x000 flood", victim.Stats().Transmitted)
	}
	if victim.Stats().DeadlineMisses == 0 {
		t.Error("victim should be missing deadlines")
	}
}

func TestTargetedDoSSparesHigherPriority(t *testing.T) {
	// A targeted DoS at 0x25F silences 0x260+ but must not block an 0x100
	// sender (Fig. 2, targeted).
	b := bus.New(bus.Rate500k)
	m := &restbus.Matrix{Vehicle: "t", Bus: "t", Messages: []restbus.Message{
		{ID: 0x100, Transmitter: "hi", DLC: 8, Period: 20 * time.Millisecond},
		{ID: 0x260, Transmitter: "lo", DLC: 8, Period: 20 * time.Millisecond},
	}}
	v := restbus.NewReplayer("ecus", m, bus.Rate500k, nil)
	b.Attach(v)
	b.Attach(NewTargetedDoS("dos", 0x25F))
	b.RunFor(100 * time.Millisecond)

	miss := v.Stats().MissByID
	if miss[0x100] != 0 {
		t.Errorf("high-priority 0x100 missed %d deadlines under targeted DoS", miss[0x100])
	}
	if miss[0x260] < 3 {
		t.Errorf("victim 0x260 missed only %d deadlines", miss[0x260])
	}
}

func TestFabricationOverridesVictim(t *testing.T) {
	// The fabrication attacker injects spoofed 0x260 frames far more often
	// than the victim's 20ms period; a receiver sees mostly forged payloads.
	b, _ := victimBus(bus.Rate500k)
	forged := 0
	genuine := 0
	rx := controller.New(controller.Config{Name: "rx", AutoRecover: true,
		OnReceive: func(_ bus.BitTime, f can.Frame) {
			if f.ID != 0x260 {
				return
			}
			if len(f.Data) == 2 && f.Data[0] == 0xBA && f.Data[1] == 0xD1 {
				forged++
			} else {
				genuine++
			}
		}})
	b.Attach(rx)
	period := bus.Rate500k.Bits(2 * time.Millisecond)
	b.Attach(NewFabrication("fab", 0x260, []byte{0xBA, 0xD1}, period))
	b.RunFor(100 * time.Millisecond)

	if forged < 40 {
		t.Errorf("forged frames seen = %d, want ≈50", forged)
	}
	if forged <= genuine*5 {
		t.Errorf("forged (%d) should dwarf genuine (%d)", forged, genuine)
	}
}

func TestRandomDoSDrawsVariedIDs(t *testing.T) {
	b := bus.New(bus.Rate500k)
	seen := make(map[can.ID]bool)
	rx := controller.New(controller.Config{Name: "rx", AutoRecover: true,
		OnReceive: func(_ bus.BitTime, f can.Frame) { seen[f.ID] = true }})
	b.Attach(rx)
	b.Attach(NewRandomDoS("rand", 0x100, 200, rand.New(rand.NewSource(9))))
	b.RunFor(50 * time.Millisecond)

	if len(seen) < 5 {
		t.Errorf("random DoS produced only %d distinct IDs", len(seen))
	}
	for id := range seen {
		if id >= 0x100 {
			t.Errorf("ID %v outside the configured bound", id)
		}
	}
}

func TestTogglingAlternatesIDs(t *testing.T) {
	b := bus.New(bus.Rate500k)
	var order []can.ID
	rx := controller.New(controller.Config{Name: "rx", AutoRecover: true,
		OnReceive: func(_ bus.BitTime, f can.Frame) { order = append(order, f.ID) }})
	b.Attach(rx)
	b.Attach(NewToggling("toggle", 0x050, 0x051))
	b.RunFor(10 * time.Millisecond)

	if len(order) < 4 {
		t.Fatalf("only %d frames observed", len(order))
	}
	for i, id := range order {
		want := can.ID(0x050 + i%2)
		if id != want {
			t.Fatalf("frame %d has ID %v, want %v (strict alternation)", i, id, want)
		}
	}
}

func TestMasqueradePhases(t *testing.T) {
	// Phase 1 suppresses the victim; phase 2 fabricates its frames.
	b, victim := victimBus(bus.Rate500k)
	switchAt := bus.Rate500k.Bits(50 * time.Millisecond)
	var spoofed int
	rx := controller.New(controller.Config{Name: "rx", AutoRecover: true,
		OnReceive: func(tt bus.BitTime, f can.Frame) {
			if f.ID == 0x260 && int64(tt) > switchAt && len(f.Data) == 1 {
				spoofed++
			}
		}})
	b.Attach(rx)
	period := bus.Rate500k.Bits(5 * time.Millisecond)
	b.Attach(NewMasquerade("masq", 0x260, []byte{0x66}, bus.BitTime(switchAt), period))
	b.RunFor(100 * time.Millisecond)

	if victim.Stats().DeadlineMisses == 0 {
		t.Error("phase 1 should suppress the victim")
	}
	if spoofed < 5 {
		t.Errorf("phase 2 spoofed %d frames, want ≈10", spoofed)
	}
}

func TestMiscellaneousAttackerHarmless(t *testing.T) {
	b, victim := victimBus(bus.Rate500k)
	b.Attach(NewMiscellaneous("misc", 0x7F5, 500))
	b.RunFor(100 * time.Millisecond)
	if victim.Stats().DeadlineMisses != 0 {
		t.Errorf("miscellaneous attack caused %d deadline misses", victim.Stats().DeadlineMisses)
	}
	if victim.MissRate() != 0 {
		t.Error("victim should be unaffected")
	}
}

func TestAttackerUsesCompliantController(t *testing.T) {
	// The threat model: the attacker cannot violate protocol. Its controller
	// ramps TEC and buses off like any compliant node when its frames are
	// destroyed (here by a raw jammer).
	b := bus.New(bus.Rate500k)
	att := NewTraditionalDoS("dos")
	b.Attach(att)
	witness := controller.New(controller.Config{Name: "w", AutoRecover: true})
	b.Attach(witness)
	jam := &rawJammer{}
	b.Attach(jam)
	if !b.RunUntil(func() bool { return att.Controller().State() == controller.BusOff }, 5000) {
		t.Fatal("attacker controller never bused off under jamming")
	}
	if att.Controller().Stats().TxAttempts != 32 {
		t.Errorf("attempts = %d, want 32", att.Controller().Stats().TxAttempts)
	}
}

// rawJammer pulls the bus dominant for bits 14-20 of every frame, like the
// MichiCAN prevention pull.
type rawJammer struct {
	idle  int
	cnt   int
	frame bool
	next  can.Level
}

func (j *rawJammer) Drive(bus.BitTime) can.Level {
	if j.next == can.Dominant {
		return can.Dominant
	}
	return can.Recessive
}

func (j *rawJammer) Observe(_ bus.BitTime, level can.Level) {
	j.next = can.Recessive
	if !j.frame {
		if level == can.Dominant && j.idle >= 11 {
			j.frame = true
			j.cnt = 1
		}
	} else {
		j.cnt++
	}
	if level == can.Recessive {
		j.idle++
		if j.idle >= 11 {
			j.frame = false
		}
	} else {
		j.idle = 0
	}
	if j.frame && j.cnt+1 >= 14 && j.cnt+1 <= 20 {
		j.next = can.Dominant
	}
}

// TestInjectionAllocatesNothing: once each injected frame's plan is
// compiled, an attacker's steady injection allocates nothing per send. The
// policy appends into the attacker's reused buffer and the mailbox queues
// the payload copy that frame's plan holds. The warm-up runs in the
// measured 10,000-bit calls, past the bus's first contend proposal, which
// sizes the scratch the bus owns (after one 20,000-bit call, the random
// flood's first proposal fell inside the measured calls), so the gate
// measures the steady state, not that proposal's growth.
func TestInjectionAllocatesNothing(t *testing.T) {
	for name, tc := range map[string]struct {
		att      *Attacker
		contends bool // the bus takes the contend rung in the warm-up
	}{
		"flood":       {NewTraditionalDoS("dos"), true},
		"fabrication": {NewFabrication("spoof", 0x173, []byte{0xDE, 0xAD}, 500), false},
		"random":      {NewRandomDoS("random", 4, 300, rand.New(rand.NewSource(1))), true},
		"toggle":      {NewToggling("toggle", 0x050, 0x051), true},
	} {
		att := tc.att
		b := bus.New(bus.Rate500k)
		b.Attach(controller.New(controller.Config{Name: "witness", AutoRecover: true}))
		b.Attach(att)
		for i := 0; i < 5; i++ {
			b.Run(10_000)
		}
		if contended := b.ContendForwardedBits() > 0; contended != tc.contends {
			t.Fatalf("%s: contend rung used in the warm-up = %v, want %v", name, contended, tc.contends)
		}
		sent := att.Controller().Stats().TxSuccess
		if got := testing.AllocsPerRun(5, func() { b.Run(10_000) }); got != 0 {
			t.Errorf("%s: %v allocations per 10,000 bits, want 0", name, got)
		}
		if att.Controller().Stats().TxSuccess-sent < 50 {
			t.Errorf("%s: %d frames sent while measured, want at least 50", name, att.Controller().Stats().TxSuccess-sent)
		}
	}
}
