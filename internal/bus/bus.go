// Package bus simulates the physical layer of a Controller Area Network: a
// shared wire with wired-AND semantics advancing in discrete nominal bit
// times.
//
// Each attached Node is asked once per bit which level it drives; the bus
// resolves the wired-AND of all driven levels (any dominant wins) and then
// delivers the resolved level back to every node and every tap. This mirrors
// the CAN assumption that signals propagate to all nodes well within one bit
// time, which is the granularity at which arbitration, error signalling, and
// the MichiCAN counterattack all operate.
package bus

import (
	"fmt"
	"time"

	"michican/internal/can"
	"michican/internal/telemetry"
)

// BitTime is the index of a nominal bit time since the start of simulation.
type BitTime int64

// Rate is a CAN bus speed in bits per second.
type Rate int

// Standard automotive CAN bus speeds used in the paper's evaluation.
const (
	Rate50k  Rate = 50_000
	Rate125k Rate = 125_000
	Rate250k Rate = 250_000
	Rate500k Rate = 500_000
	Rate1M   Rate = 1_000_000
)

// BitDuration returns the nominal bit time at this rate.
func (r Rate) BitDuration() time.Duration {
	if r <= 0 {
		return 0
	}
	return time.Duration(int64(time.Second) / int64(r))
}

// Duration converts a number of bits at this rate into wall-clock time.
func (r Rate) Duration(bits int64) time.Duration {
	return time.Duration(bits) * r.BitDuration()
}

// Bits returns how many whole bit times fit into d at this rate.
func (r Rate) Bits(d time.Duration) int64 {
	bt := r.BitDuration()
	if bt == 0 {
		return 0
	}
	return int64(d / bt)
}

// String formats the rate in the conventional kbit/s notation.
func (r Rate) String() string {
	if r >= 1_000_000 && r%1_000_000 == 0 {
		return fmt.Sprintf("%dMbit/s", int(r)/1_000_000)
	}
	return fmt.Sprintf("%dkbit/s", int(r)/1000)
}

// Node is anything wired to the bus: a CAN controller, an attacker, a
// defense, or a passive monitor.
//
// The bus calls Drive for every node first, resolves the wired-AND, and then
// calls Observe on every node with the resolved level. A node must base its
// Drive decision for bit t only on levels observed through bit t-1; Observe
// for bit t is where it reads back the wire (CAN bit monitoring).
type Node interface {
	// Drive returns the level this node puts on the wire during bit t.
	// Nodes that do not transmit must return Recessive (the wire floats).
	Drive(t BitTime) can.Level
	// Observe delivers the resolved bus level for bit t.
	Observe(t BitTime, level can.Level)
}

// Waker is an optional node capability: time-triggered work the node does
// at a bit boundary, before any node drives that bit (a periodic send's
// enqueue). The bus bounds every fast-forward op at the earliest wake of any
// attached node, so a wake lands on exactly the bit it names on every rung.
//
// NextWake returns the bit time of the node's next wake, or
// QuiescentForever for none; it may rise between wakes (a cancelled send)
// but fall only through Wake. Wake
// runs the work due at now; the bus calls it once NextWake() <= now, before
// the bit is driven, and reads NextWake again afterwards.
type Waker interface {
	NextWake() BitTime
	Wake(now BitTime)
}

// Tap is a passive observer (logic analyzer) that sees every resolved bit
// but never drives the wire.
type Tap interface {
	Bit(t BitTime, level can.Level)
}

// Bus is a simulated CAN bus. The zero value is not usable; create one with
// New. Bus is not safe for concurrent use; a simulation is single-threaded
// by design (determinism), and experiment-level parallelism runs one Bus per
// goroutine.
type Bus struct {
	rate    Rate
	nodes   []nodeRec
	taps    []tapRec
	now     BitTime
	idleRun int
	last    can.Level

	// wake is the earliest NextWake of any attached Waker (QuiescentForever
	// for none): no op crosses it, and the bit it names starts with the due
	// nodes' Wake calls.
	wake BitTime

	// top is the highest fast-forward rung this bus may take (SetLadder);
	// pinned has bit r set while some participant lacks a capability rung r
	// needs. Both only change in SetLadder and Attach/AttachTap/Detach, so
	// the walker tests one rung in O(1) without re-querying interfaces.
	top    Rung
	pinned uint8

	// Bits carried by each fast-forward rung (see quiesce.go, contendpath.go
	// and splicepath.go).
	ffSkipped     int64
	ffContendBits int64
	ffSpliceBits  int64

	// contendSc is the contend rung's proposal scratch.
	contendSc contendScratch

	// spliceWin is the splice rung's copy of the committed offer: the
	// offerer may rewrite its own window in SpliceCommit, before the
	// receivers apply it.
	spliceWin SpliceWindow

	// tel receives fast-path span events (EvFFSpan). The zero Probe is a
	// no-op, so unwired buses pay one nil check per committed span — never
	// per bit.
	tel telemetry.Probe
}

// nodeRec is one attached node and the fast-forward capabilities it
// asserts; a nil capability means the node lacks it.
type nodeRec struct {
	n       Node
	wake    Waker
	quiet   Quiescent
	run     RunObserver
	contend ContendCommitter
	splice  Splicing
}

// tapRec is one attached tap and the batch capabilities it asserts.
type tapRec struct {
	t    Tap
	skip TapFastForwarder
	run  TapRunObserver
}

// New creates an idle bus running at the given rate.
func New(rate Rate) *Bus {
	return &Bus{rate: rate, last: can.Recessive, top: RungSplice, wake: QuiescentForever}
}

// Rate returns the configured bus speed.
func (b *Bus) Rate() Rate { return b.rate }

// SetTelemetry wires the bus to a telemetry hub under the given node name.
// The bus emits one EvFFSpan per committed fast-path span; a nil hub
// disables emission.
func (b *Bus) SetTelemetry(hub *telemetry.Hub, name string) {
	b.tel = hub.Probe(name)
}

// Now returns the index of the next bit to be simulated.
func (b *Bus) Now() BitTime { return b.now }

// Elapsed returns the wall-clock time represented by the simulation so far.
func (b *Bus) Elapsed() time.Duration { return b.rate.Duration(int64(b.now)) }

// Attach wires a node to the bus. Nodes may be attached mid-simulation
// (e.g. plugging a device into the OBD-II port).
func (b *Bus) Attach(n Node) {
	r := nodeRec{n: n}
	r.wake, _ = n.(Waker)
	r.quiet, _ = n.(Quiescent)
	r.run, _ = n.(RunObserver)
	r.contend, _ = n.(ContendCommitter)
	r.splice, _ = n.(Splicing)
	b.nodes = append(b.nodes, r)
	b.repin()
	if r.wake != nil {
		b.wake = min(b.wake, r.wake.NextWake())
	}
}

// Detach removes a node from the bus. It reports whether the node was found.
func (b *Bus) Detach(n Node) bool {
	for i, r := range b.nodes {
		if r.n == n {
			last := len(b.nodes) - 1
			copy(b.nodes[i:], b.nodes[i+1:])
			b.nodes[last] = nodeRec{} // clear the stale tail so the node can be GC'd
			b.nodes = b.nodes[:last]
			b.repin()
			b.wake = b.now // the next walk or Step recomputes it
			return true
		}
	}
	return false
}

// AttachTap adds a passive observer.
func (b *Bus) AttachTap(t Tap) {
	r := tapRec{t: t}
	r.skip, _ = t.(TapFastForwarder)
	r.run, _ = t.(TapRunObserver)
	b.taps = append(b.taps, r)
	b.repin()
}

// wakeDue runs the Wake of every node due at the current bit and
// recomputes the earliest wake.
func (b *Bus) wakeDue() {
	b.wake = QuiescentForever
	for i := range b.nodes {
		w := b.nodes[i].wake
		if w == nil {
			continue
		}
		if w.NextWake() <= b.now {
			w.Wake(b.now)
		}
		b.wake = min(b.wake, w.NextWake())
	}
}

// Step advances the simulation by one nominal bit time and returns the
// resolved bus level for that bit, waking the nodes due at it first.
func (b *Bus) Step() can.Level {
	if b.now >= b.wake {
		b.wakeDue()
	}
	t := b.now
	level := can.Recessive
	nodes, taps := b.nodes, b.taps
	for i := range nodes {
		if nodes[i].n.Drive(t) == can.Dominant {
			level = can.Dominant
		}
	}
	for i := range nodes {
		nodes[i].n.Observe(t, level)
	}
	for i := range taps {
		taps[i].t.Bit(t, level)
	}
	if level == can.Recessive {
		b.idleRun++
	} else {
		b.idleRun = 0
	}
	b.last = level
	b.now++
	return level
}

// Run advances the simulation by n bit times, taking the fast-forward ladder
// wherever every participant allows it (see walk).
func (b *Bus) Run(n int64) {
	b.walk(nil, b.now+BitTime(n))
}

// RunFor advances the simulation by the number of bit times equivalent to d
// at the bus rate.
func (b *Bus) RunFor(d time.Duration) {
	b.Run(b.rate.Bits(d))
}

// RunUntil advances the bus until the predicate returns true or maxBits have
// elapsed, and reports whether the predicate fired. The predicate is checked
// after every committed step, exact or fast-forwarded; predicates must
// therefore depend only on node state (which evolves identically on every
// rung), not on the specific bit time at which they are polled.
func (b *Bus) RunUntil(pred func() bool, maxBits int64) bool {
	return b.walk(pred, b.now+BitTime(maxBits))
}

// walk is the ladder walker behind Run and RunUntil. Each iteration wakes
// the nodes due at the current bit, then commits one op bounded by end and
// the next wake, trying the rungs in order — an idle jump, a compiled
// splice, a contended span — and exact-stepping one bit when every rung
// declines. pred, when non-nil, is polled after every op and stops the walk
// when it fires; walk reports whether it did.
func (b *Bus) walk(pred func() bool, end BitTime) bool {
	start := b.now
	fired := false
	for b.now < end {
		if b.now >= b.wake {
			b.wakeDue()
		}
		stop := min(end, b.wake)
		if !b.tryFastForward(stop) && !b.trySpliceForward(stop) && !b.tryContendForward(stop) {
			b.Step()
		}
		if pred != nil && pred() {
			fired = true
			break
		}
	}
	simulatedBits.Add(int64(b.now - start))
	return fired
}

// IdleRun returns the number of consecutive recessive bits observed up to and
// including the most recent bit.
func (b *Bus) IdleRun() int { return b.idleRun }

// Level returns the most recently resolved bus level (recessive before the
// first step).
func (b *Bus) Level() can.Level { return b.last }

// Group steps several buses in virtual-time lockstep — the multi-domain
// in-vehicle network case (e.g. a 500 kbit/s powertrain bus bridged to a
// 125 kbit/s body bus by a gateway). Buses may run at different rates; the
// group always advances the bus whose simulated clock is furthest behind.
//
// The lagging bus is tracked with a binary min-heap keyed on (elapsed time,
// attach order), so each Step costs O(log buses) instead of rescanning every
// bus; the attach-order tie-break reproduces the first-wins selection of the
// original linear scan exactly.
type Group struct {
	buses []*Bus
	order []int // heap of indices into buses
}

// NewGroup creates a lockstep group over the given buses.
func NewGroup(buses ...*Bus) *Group {
	g := &Group{buses: buses, order: make([]int, len(buses))}
	for i := range g.order {
		g.order[i] = i
	}
	for i := len(g.order)/2 - 1; i >= 0; i-- {
		g.siftDown(i)
	}
	return g
}

// lags reports whether bus index a orders strictly before bus index b:
// less elapsed simulated time, with attach order breaking ties.
func (g *Group) lags(a, b int) bool {
	ea, eb := g.buses[a].Elapsed(), g.buses[b].Elapsed()
	if ea != eb {
		return ea < eb
	}
	return a < b
}

func (g *Group) siftDown(i int) {
	n := len(g.order)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && g.lags(g.order[l], g.order[least]) {
			least = l
		}
		if r < n && g.lags(g.order[r], g.order[least]) {
			least = r
		}
		if least == i {
			return
		}
		g.order[i], g.order[least] = g.order[least], g.order[i]
		i = least
	}
}

// Step advances the bus with the smallest elapsed simulated time by one bit.
func (g *Group) Step() {
	if len(g.buses) == 0 {
		return
	}
	g.buses[g.order[0]].Step()
	g.siftDown(0)
}

// RunFor advances every bus in the group to at least d of simulated time.
// Because the heap root is always the furthest-behind bus, the group is done
// exactly when the root has reached d — no per-bit rescan of all buses.
func (g *Group) RunFor(d time.Duration) {
	if len(g.buses) == 0 {
		return
	}
	var stepped int64
	for g.buses[g.order[0]].Elapsed() < d {
		g.buses[g.order[0]].Step()
		g.siftDown(0)
		stepped++
	}
	simulatedBits.Add(stepped)
}
