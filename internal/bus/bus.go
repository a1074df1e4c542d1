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
	nodes   []Node
	taps    []Tap
	now     BitTime
	idleRun int
	last    can.Level

	// Idle fast-forward state (see quiesce.go). quiescent is parallel to
	// nodes and ffTaps to taps, with nil entries for participants lacking
	// the capability; pinned/tapPinned count those entries so the hot path
	// can bail in O(1) without re-querying interfaces.
	quiescent  []Quiescent
	ffTaps     []TapFastForwarder
	pinned     int
	tapPinned  int
	ffDisabled bool
	ffSkipped  int64

	// Frame fast-forward state (see framepath.go). txCap and runObs are
	// parallel to nodes, tapRun to taps; runPinned/tapRunPinned count the
	// participants lacking batch delivery.
	txCap        []Transmitting
	runObs       []RunObserver
	runPinned    int
	tapRun       []TapRunObserver
	tapRunPinned int
	frameFFOff   bool
	ffFrameBits  int64

	// Contested-window fast-forward state (see contendpath.go). contendCap is
	// parallel to nodes; contendSc is the retained proposal scratch, which
	// Detach invalidates (it may reference a detached node's committed
	// stream).
	contendCap    []ContendCommitter
	contendFFOff  bool
	ffContendBits int64
	contendSc     *contendScratch

	// Compiled-splice fast-forward state (see splicepath.go). spliceCap is
	// parallel to nodes; splicePinned counts nodes lacking the capability;
	// spliceGen stamps the node topology so plan-carried splice memos —
	// whose per-node slots are indexed by attachment order — invalidate
	// when a detach renumbers the nodes.
	spliceCap    []Splicing
	splicePinned int
	spliceFFOff  bool
	ffSpliceBits int64
	spliceGen    uint64

	// tel receives fast-path span events (EvFFSpan). The zero Probe is a
	// no-op, so unwired buses pay one nil check per committed span — never
	// per bit.
	tel telemetry.Probe
}

// New creates an idle bus running at the given rate.
func New(rate Rate) *Bus {
	return &Bus{rate: rate, last: can.Recessive}
}

// Rate returns the configured bus speed.
func (b *Bus) Rate() Rate { return b.rate }

// SetTelemetry wires the bus to a telemetry hub under the given node name.
// The bus emits one EvFFSpan per committed fast-path span (idle jump or
// sole-transmitter frame batch); a nil hub disables emission.
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
	b.nodes = append(b.nodes, n)
	q, ok := n.(Quiescent)
	b.quiescent = append(b.quiescent, q)
	if !ok {
		b.pinned++
	}
	tc, _ := n.(Transmitting)
	b.txCap = append(b.txCap, tc)
	ro, ok := n.(RunObserver)
	b.runObs = append(b.runObs, ro)
	if !ok {
		b.runPinned++
	}
	cc, _ := n.(ContendCommitter)
	b.contendCap = append(b.contendCap, cc)
	sp, ok := n.(Splicing)
	b.spliceCap = append(b.spliceCap, sp)
	if !ok {
		b.splicePinned++
	}
}

// Detach removes a node from the bus. It reports whether the node was found.
func (b *Bus) Detach(n Node) bool {
	for i, node := range b.nodes {
		if node == n {
			last := len(b.nodes) - 1
			copy(b.nodes[i:], b.nodes[i+1:])
			b.nodes[last] = nil // clear the stale tail so the node can be GC'd
			b.nodes = b.nodes[:last]
			if b.quiescent[i] == nil {
				b.pinned--
			}
			copy(b.quiescent[i:], b.quiescent[i+1:])
			b.quiescent[last] = nil
			b.quiescent = b.quiescent[:last]
			copy(b.txCap[i:], b.txCap[i+1:])
			b.txCap[last] = nil
			b.txCap = b.txCap[:last]
			if b.runObs[i] == nil {
				b.runPinned--
			}
			copy(b.runObs[i:], b.runObs[i+1:])
			b.runObs[last] = nil
			b.runObs = b.runObs[:last]
			copy(b.contendCap[i:], b.contendCap[i+1:])
			b.contendCap[last] = nil
			b.contendCap = b.contendCap[:last]
			if b.spliceCap[i] == nil {
				b.splicePinned--
			}
			copy(b.spliceCap[i:], b.spliceCap[i+1:])
			b.spliceCap[last] = nil
			b.spliceCap = b.spliceCap[:last]
			// Compaction renumbered the surviving nodes, so every per-node
			// slot in the plan-carried splice memos is stale.
			b.spliceGen++
			b.invalidateProposal()
			return true
		}
	}
	return false
}

// AttachTap adds a passive observer.
func (b *Bus) AttachTap(t Tap) {
	b.taps = append(b.taps, t)
	ft, ok := t.(TapFastForwarder)
	b.ffTaps = append(b.ffTaps, ft)
	if !ok {
		b.tapPinned++
	}
	tr, ok := t.(TapRunObserver)
	b.tapRun = append(b.tapRun, tr)
	if !ok {
		b.tapRunPinned++
	}
}

// Step advances the simulation by one nominal bit time and returns the
// resolved bus level for that bit.
func (b *Bus) Step() can.Level {
	t := b.now
	level := can.Recessive
	for _, n := range b.nodes {
		if n.Drive(t) == can.Dominant {
			level = can.Dominant
		}
	}
	for _, n := range b.nodes {
		n.Observe(t, level)
	}
	for _, tap := range b.taps {
		tap.Bit(t, level)
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

// Run advances the simulation by n bit times, fast-forwarding through
// stretches where every attached node and tap is quiescent (see quiesce.go).
func (b *Bus) Run(n int64) {
	if n <= 0 {
		return
	}
	end := b.now + BitTime(n)
	for b.now < end {
		if !b.tryFastForward(end) && !b.trySpliceForward(end) &&
			!b.tryFrameForward(end) && !b.tryContendForward(end) {
			b.Step()
		}
	}
	simulatedBits.Add(n)
}

// RunFor advances the simulation by the number of bit times equivalent to d
// at the bus rate.
func (b *Bus) RunFor(d time.Duration) {
	b.Run(b.rate.Bits(d))
}

// RunUntil advances the bus until the predicate returns true or maxBits have
// elapsed, and reports whether the predicate fired. The predicate is checked
// after every exact step and after every quiescent jump; predicates must
// therefore depend only on node state (which evolves identically on both
// paths), not on the specific bit time at which they are polled.
func (b *Bus) RunUntil(pred func() bool, maxBits int64) bool {
	start := b.now
	end := b.now + BitTime(maxBits)
	defer func() { simulatedBits.Add(int64(b.now - start)) }()
	for b.now < end {
		if !b.tryFastForward(end) && !b.trySpliceForward(end) &&
			!b.tryFrameForward(end) && !b.tryContendForward(end) {
			b.Step()
		}
		if pred() {
			return true
		}
	}
	return false
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
//
// When every member bus is quiescent, the whole group jumps in lockstep to
// the minimum quiescence horizon (in elapsed-time terms) instead of stepping
// bit by bit; any pinned member forces exact stepping for the group, so the
// result is bit-identical to per-bit lockstep.
func (g *Group) RunFor(d time.Duration) {
	if len(g.buses) == 0 {
		return
	}
	var stepped int64
	for g.buses[g.order[0]].Elapsed() < d {
		if n := g.tryJump(d); n > 0 {
			stepped += n
			continue
		}
		g.buses[g.order[0]].Step()
		g.siftDown(0)
		stepped++
	}
	simulatedBits.Add(stepped)
}

// targetBits returns the bit count at which this bus's elapsed time first
// reaches at least d — exactly where per-bit lockstep would leave it.
func (b *Bus) targetBits(d time.Duration) BitTime {
	n := b.rate.Bits(d)
	if b.rate.Duration(n) < d {
		n++
	}
	return BitTime(n)
}

// tryJump advances every member bus toward d through a window in which all
// of them are quiescent, returning the total bits jumped (0 when any member
// pins or no bus can move). Idle bits carry no cross-bus influence — every
// node has promised passivity and count-pure state over the window — so
// jumping all buses to a common wall-clock point T is interleaving-equivalent
// to per-bit lockstep over the same region. Each bus lands at floor(T/bit),
// never past its own promise horizon; the per-bit loop tops off the ragged
// last bits exactly.
func (g *Group) tryJump(d time.Duration) int64 {
	T := d
	for _, b := range g.buses {
		target := b.targetBits(d)
		if b.now >= target {
			continue // already past the window; it jumps nowhere below
		}
		h := b.idleHorizon(target)
		if h <= b.now {
			return 0
		}
		if t := b.rate.Duration(int64(h)); t < T {
			T = t
		}
	}
	var moved int64
	for _, b := range g.buses {
		if to := BitTime(b.rate.Bits(T)); to > b.now {
			moved += int64(to - b.now)
			b.jumpIdle(to)
		}
	}
	if moved > 0 {
		for i := len(g.order)/2 - 1; i >= 0; i-- {
			g.siftDown(i)
		}
	}
	return moved
}
