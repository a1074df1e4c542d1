package bus

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"michican/internal/can"
)

// constNode drives a fixed level and records what it observes.
type constNode struct {
	drive    can.Level
	observed []can.Level
	times    []BitTime
}

func (n *constNode) Drive(BitTime) can.Level { return n.drive }
func (n *constNode) Observe(t BitTime, l can.Level) {
	n.observed = append(n.observed, l)
	n.times = append(n.times, t)
}

// levelTap records tap callbacks.
type levelTap struct {
	levels []can.Level
}

func (t *levelTap) Bit(_ BitTime, l can.Level) { t.levels = append(t.levels, l) }

func TestRateConversions(t *testing.T) {
	tests := []struct {
		rate Rate
		bit  time.Duration
	}{
		{Rate50k, 20 * time.Microsecond},
		{Rate125k, 8 * time.Microsecond},
		{Rate250k, 4 * time.Microsecond},
		{Rate500k, 2 * time.Microsecond},
		{Rate1M, time.Microsecond},
	}
	for _, tt := range tests {
		if got := tt.rate.BitDuration(); got != tt.bit {
			t.Errorf("%v bit time = %v, want %v", tt.rate, got, tt.bit)
		}
	}
	if Rate(0).BitDuration() != 0 {
		t.Error("zero rate bit time")
	}
	if got := Rate500k.Duration(1000); got != 2*time.Millisecond {
		t.Errorf("Duration = %v", got)
	}
	if got := Rate500k.Bits(time.Millisecond); got != 500 {
		t.Errorf("Bits = %d", got)
	}
	if Rate(0).Bits(time.Second) != 0 {
		t.Error("zero rate Bits must be 0")
	}
}

func TestRateString(t *testing.T) {
	if Rate500k.String() != "500kbit/s" {
		t.Errorf("got %q", Rate500k.String())
	}
	if Rate1M.String() != "1Mbit/s" {
		t.Errorf("got %q", Rate1M.String())
	}
}

func TestWiredAND(t *testing.T) {
	b := New(Rate500k)
	r1 := &constNode{drive: can.Recessive}
	r2 := &constNode{drive: can.Recessive}
	b.Attach(r1)
	b.Attach(r2)
	if got := b.Step(); got != can.Recessive {
		t.Error("all-recessive bus must resolve recessive")
	}
	d := &constNode{drive: can.Dominant}
	b.Attach(d)
	if got := b.Step(); got != can.Dominant {
		t.Error("any dominant driver must win")
	}
	// Every node observes the resolved level, including the drivers.
	if r1.observed[1] != can.Dominant || d.observed[0] != can.Dominant {
		t.Error("observers did not see the resolved level")
	}
}

func TestEmptyBusFloatsRecessive(t *testing.T) {
	b := New(Rate500k)
	for i := 0; i < 5; i++ {
		if b.Step() != can.Recessive {
			t.Fatal("empty bus must float recessive")
		}
	}
	if b.IdleRun() != 5 {
		t.Errorf("IdleRun = %d", b.IdleRun())
	}
}

func TestTimeAdvances(t *testing.T) {
	b := New(Rate500k)
	n := &constNode{drive: can.Recessive}
	b.Attach(n)
	b.Run(10)
	if b.Now() != 10 {
		t.Errorf("Now = %d", b.Now())
	}
	for i, tm := range n.times {
		if tm != BitTime(i) {
			t.Fatalf("observation %d at time %d", i, tm)
		}
	}
	if b.Elapsed() != 20*time.Microsecond {
		t.Errorf("Elapsed = %v", b.Elapsed())
	}
}

func TestRunFor(t *testing.T) {
	b := New(Rate50k)
	b.RunFor(time.Millisecond) // 50 bits
	if b.Now() != 50 {
		t.Errorf("Now = %d after 1ms at 50 kbit/s", b.Now())
	}
}

func TestRunUntil(t *testing.T) {
	b := New(Rate500k)
	fired := b.RunUntil(func() bool { return b.Now() >= 7 }, 100)
	if !fired || b.Now() != 7 {
		t.Errorf("RunUntil stopped at %d (fired=%v)", b.Now(), fired)
	}
	fired = b.RunUntil(func() bool { return false }, 10)
	if fired || b.Now() != 17 {
		t.Errorf("RunUntil budget: now=%d fired=%v", b.Now(), fired)
	}
}

func TestDetach(t *testing.T) {
	b := New(Rate500k)
	d := &constNode{drive: can.Dominant}
	b.Attach(d)
	if b.Step() != can.Dominant {
		t.Fatal("driver not wired")
	}
	if !b.Detach(d) {
		t.Fatal("detach failed")
	}
	if b.Step() != can.Recessive {
		t.Error("detached node still drives")
	}
	if b.Detach(d) {
		t.Error("double detach reported success")
	}
}

func TestIdleRunResetsOnDominant(t *testing.T) {
	b := New(Rate500k)
	n := &constNode{drive: can.Recessive}
	b.Attach(n)
	b.Run(3)
	n.drive = can.Dominant
	b.Step()
	if b.IdleRun() != 0 {
		t.Errorf("IdleRun = %d after dominant", b.IdleRun())
	}
	if b.Level() != can.Dominant {
		t.Error("Level should report last resolved bit")
	}
}

func TestTapSeesEveryBit(t *testing.T) {
	b := New(Rate500k)
	tap := &levelTap{}
	b.AttachTap(tap)
	d := &constNode{drive: can.Dominant}
	b.Attach(d)
	b.Run(4)
	if len(tap.levels) != 4 {
		t.Fatalf("tap saw %d bits", len(tap.levels))
	}
	for _, l := range tap.levels {
		if l != can.Dominant {
			t.Error("tap level mismatch")
		}
	}
}

func TestMidSimulationAttach(t *testing.T) {
	b := New(Rate500k)
	b.Run(5)
	n := &constNode{drive: can.Recessive}
	b.Attach(n)
	b.Run(3)
	if len(n.observed) != 3 {
		t.Errorf("late node observed %d bits", len(n.observed))
	}
	if n.times[0] != 5 {
		t.Errorf("late node first observation at %d", n.times[0])
	}
}

func TestGroupLockstep(t *testing.T) {
	fast := New(Rate500k)
	slow := New(Rate125k)
	g := NewGroup(fast, slow)
	g.RunFor(time.Millisecond)
	if fast.Now() < 500 || slow.Now() < 125 {
		t.Fatalf("fast=%d slow=%d bits after 1ms", fast.Now(), slow.Now())
	}
	// Virtual clocks stay within one bit time of each other.
	diff := fast.Elapsed() - slow.Elapsed()
	if diff < 0 {
		diff = -diff
	}
	if diff > slow.Rate().BitDuration() {
		t.Errorf("clocks diverged by %v", diff)
	}
	empty := NewGroup()
	empty.Step() // must not panic
}

// periodicNode wakes every period bits from first and is otherwise idle
// forever; it logs its wakes and drives.
type periodicNode struct {
	period, next BitTime
	wakes        []BitTime
	log          []string
}

func (n *periodicNode) Drive(t BitTime) can.Level {
	n.log = append(n.log, fmt.Sprint("drive ", t))
	return can.Recessive
}
func (n *periodicNode) Observe(BitTime, can.Level)     {}
func (n *periodicNode) QuiescentUntil(BitTime) BitTime { return QuiescentForever }
func (n *periodicNode) SkipIdle(BitTime, BitTime)      {}
func (n *periodicNode) NextWake() BitTime              { return n.next }
func (n *periodicNode) Wake(now BitTime) {
	n.wakes = append(n.wakes, now)
	n.log = append(n.log, fmt.Sprint("wake ", now))
	n.next = now + n.period
}

// TestWakesLandOnTheirBits checks that a node's wake runs at exactly the bit
// it names, before that bit is driven, whether the bus is run on the
// ladder, stepped bit by bit or stepped in a group, and that a detached
// node is not woken.
func TestWakesLandOnTheirBits(t *testing.T) {
	want := []BitTime{3, 13, 23, 33, 43}
	newNode := func() *periodicNode { return &periodicNode{period: 10, next: 3} }

	n := newNode()
	b := New(Rate500k)
	b.Attach(n)
	b.Run(50)
	if !slices.Equal(n.wakes, want) {
		t.Errorf("ladder: wakes at %v, want %v", n.wakes, want)
	}
	if b.IdleForwardedBits() != 50 {
		t.Errorf("ladder: %d of 50 bits idle-forwarded", b.IdleForwardedBits())
	}

	n = newNode()
	b = New(Rate500k)
	b.Attach(n)
	for range 50 {
		b.Step()
	}
	if !slices.Equal(n.wakes, want) {
		t.Errorf("steps: wakes at %v, want %v", n.wakes, want)
	}
	if i := slices.Index(n.log, "wake 13"); i < 0 || n.log[i+1] != "drive 13" || n.log[i-1] != "drive 12" {
		t.Errorf("steps: wake 13 not between drives 12 and 13: %v", n.log)
	}

	n = newNode()
	fast, slow := New(Rate500k), New(Rate125k)
	fast.Attach(n)
	NewGroup(fast, slow).RunFor(100 * time.Microsecond) // 50 bits at 500k
	if !slices.Equal(n.wakes, want) {
		t.Errorf("group: wakes at %v, want %v", n.wakes, want)
	}

	if !fast.Detach(n) {
		t.Fatal("group: node not found")
	}
	fast.Run(100)
	if !slices.Equal(n.wakes, want) {
		t.Errorf("after detach: wakes at %v, want %v", n.wakes, want)
	}
}
