// Package attack implements the adversaries of the paper's threat model
// (Sec. III, Fig. 2): fabrication (spoofing), suspension/DoS in its
// traditional, random, and targeted flavors, masquerade, the harmless
// miscellaneous attack, and the Experiment-6 multi-ID toggler.
//
// Every attacker drives a *compliant* CAN controller — the threat model
// grants arbitrary code execution on the ECU but forbids modifying the
// protocol controller — which is precisely why MichiCAN's induced errors
// march the attacker's TEC to bus-off.
package attack

import (
	"math/rand"

	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/telemetry"
)

// Policy decides which frames the compromised application injects at a given
// bit time. Implementations must be deterministic given their construction
// inputs (seeded RNGs) so experiments are reproducible.
type Policy interface {
	// Tick appends to dst the frames to enqueue at bit time t, given how
	// many frames are already pending in the attacker's transmit mailbox,
	// and returns the extended slice; the attacker reuses one buffer across
	// bits. An appended frame may share its payload with the policy's
	// template: Controller.Enqueue queues the payload copy its plan holds,
	// so the caller must enqueue it before the template changes and must
	// not modify it.
	Tick(t bus.BitTime, pending int, dst []can.Frame) []can.Frame
}

// Attacker is a compromised ECU: a compliant controller plus an injection
// policy. It implements bus.Node.
type Attacker struct {
	ctl    *controller.Controller
	policy Policy
	// due is the buffer the policy's Tick appends into, reused every bit.
	due []can.Frame
}

var _ bus.Node = (*Attacker)(nil)

// New creates an attacker with the given name and policy. The underlying
// controller auto-recovers from bus-off — the persistent attacker of
// Sec. V-E.
func New(name string, policy Policy) *Attacker {
	return &Attacker{
		ctl:    controller.New(controller.Config{Name: name, AutoRecover: true}),
		policy: policy,
	}
}

// Controller exposes the attacker's protocol controller (for state and
// statistics inspection).
func (a *Attacker) Controller() *controller.Controller { return a.ctl }

// SharePlans wires a fleet-shared compiled-plan cache into the attacker's
// controller, as restbus.Replayer.SharePlans does for the replayer: its
// frames then carry the shared source's plan ids, which the defense's splice
// index is keyed by. Call before the attacker produces traffic; behavior is
// bit-identical with or without sharing.
func (a *Attacker) SharePlans(src *controller.PlanSource) { a.ctl.SetPlanSource(src) }

// SetTelemetry wires the attacker's controller to a telemetry hub, so the
// induced error episodes, TEC march, and bus-off entries are captured.
func (a *Attacker) SetTelemetry(hub *telemetry.Hub) { a.ctl.SetTelemetry(hub) }

// Drive implements bus.Node.
func (a *Attacker) Drive(t bus.BitTime) can.Level { return a.ctl.Drive(t) }

// Observe implements bus.Node: the application layer runs its injection
// policy, then the controller advances.
func (a *Attacker) Observe(t bus.BitTime, level can.Level) {
	a.due = a.policy.Tick(t, a.ctl.PendingTx(), a.due[:0])
	for _, f := range a.due {
		// Policies only produce valid frames; an enqueue failure would be a
		// programming error surfaced by tests, so drop silently here.
		_ = a.ctl.Enqueue(f)
	}
	a.ctl.Observe(t, level)
}

// Flood injects one fixed frame persistently: whenever the mailbox drains,
// the next copy is queued, so the wire sees the ID back-to-back — the
// "continuously sending" DoS pattern of Sec. I.
type Flood struct {
	// Frame is the injected frame.
	Frame can.Frame
	// PeriodBits, when positive, spaces injections instead of flooding
	// back-to-back.
	PeriodBits int64

	nextDue bus.BitTime
}

var _ Policy = (*Flood)(nil)

// Tick implements Policy.
func (f *Flood) Tick(t bus.BitTime, pending int, dst []can.Frame) []can.Frame {
	if f.PeriodBits > 0 {
		if t < f.nextDue {
			return dst
		}
		f.nextDue = t + bus.BitTime(f.PeriodBits)
		return append(dst, f.Frame)
	}
	if pending > 0 {
		return dst
	}
	return append(dst, f.Frame)
}

// NewTraditionalDoS floods CAN ID 0x000 — the highest priority on the bus —
// blocking every other ECU (Fig. 2, traditional).
func NewTraditionalDoS(name string) *Attacker {
	return New(name, &Flood{Frame: can.Frame{ID: 0x000, Data: make([]byte, 8)}})
}

// NewTargetedDoS floods an ID chosen just below the victim's, silencing the
// victim and everything of lower priority while leaving higher-priority
// traffic untouched (Fig. 2, targeted; the ParkSense attack of Sec. V-F uses
// 0x25F against a feature whose lowest ID is 0x260).
func NewTargetedDoS(name string, id can.ID) *Attacker {
	return New(name, &Flood{Frame: can.Frame{ID: id, Data: make([]byte, 8)}})
}

// NewFabrication injects spoofed frames carrying the victim's CAN ID with
// attacker-controlled payload at the given period (Fig. 2 / Sec. III,
// fabrication). To override the victim's genuine messages the period is
// typically much shorter than the victim's.
func NewFabrication(name string, id can.ID, payload []byte, periodBits int64) *Attacker {
	data := make([]byte, len(payload))
	copy(data, payload)
	return New(name, &Flood{Frame: can.Frame{ID: id, Data: data}, PeriodBits: periodBits})
}

// NewMiscellaneous injects an ID above every legitimate one (Definition
// IV.3): it only ever wins idle arbitration and harms nothing — MichiCAN
// deliberately ignores it.
func NewMiscellaneous(name string, id can.ID, periodBits int64) *Attacker {
	return New(name, &Flood{Frame: can.Frame{ID: id, Data: make([]byte, 8)}, PeriodBits: periodBits})
}

// RandomDoS injects frames with IDs drawn uniformly below a bound at a fixed
// period (Fig. 2, random).
type RandomDoS struct {
	// Below bounds the drawn IDs: ids are uniform in [0, Below).
	Below can.ID
	// PeriodBits spaces the injections.
	PeriodBits int64
	// Rng drives the draw; required.
	Rng *rand.Rand

	nextDue bus.BitTime
}

var _ Policy = (*RandomDoS)(nil)

// Tick implements Policy.
func (r *RandomDoS) Tick(t bus.BitTime, _ int, dst []can.Frame) []can.Frame {
	if t < r.nextDue {
		return dst
	}
	r.nextDue = t + bus.BitTime(r.PeriodBits)
	id := can.ID(r.Rng.Intn(int(r.Below)))
	return append(dst, can.Frame{ID: id, Data: zeroPayload[:]})
}

// zeroPayload is the all-zero 8-byte payload RandomDoS injects, shared by
// every frame it appends (Enqueue queues its plan's copy).
var zeroPayload [can.MaxDataLen]byte

// NewRandomDoS creates the random-DoS attacker of Fig. 2.
func NewRandomDoS(name string, below can.ID, periodBits int64, rng *rand.Rand) *Attacker {
	return New(name, &RandomDoS{Below: below, PeriodBits: periodBits, Rng: rng})
}

// Toggle alternates between several frames, queueing the next as soon as the
// mailbox drains — the Experiment-6 attacker toggling 0x050/0x051.
type Toggle struct {
	// Frames are injected round-robin.
	Frames []can.Frame

	next int
}

var _ Policy = (*Toggle)(nil)

// Tick implements Policy.
func (g *Toggle) Tick(_ bus.BitTime, pending int, dst []can.Frame) []can.Frame {
	if pending > 0 || len(g.Frames) == 0 {
		return dst
	}
	f := g.Frames[g.next]
	g.next = (g.next + 1) % len(g.Frames)
	return append(dst, f)
}

// NewToggling creates the Experiment-6 attacker sending the given IDs
// consecutively from one node.
func NewToggling(name string, ids ...can.ID) *Attacker {
	frames := make([]can.Frame, len(ids))
	for i, id := range ids {
		frames[i] = can.Frame{ID: id, Data: make([]byte, 8)}
	}
	return New(name, &Toggle{Frames: frames})
}

// Masquerade first suspends the victim (a targeted DoS on its ID range) and
// then fabricates the victim's messages — the combined attack of Sec. III
// that motivates DoS prevention. Phase two begins after SwitchBit.
type Masquerade struct {
	// Suspend is the phase-one policy (typically a targeted DoS).
	Suspend Policy
	// Fabricate is the phase-two policy (spoofed victim frames).
	Fabricate Policy
	// SwitchBit is the bus time at which the attacker switches phases.
	SwitchBit bus.BitTime
}

var _ Policy = (*Masquerade)(nil)

// Tick implements Policy.
func (m *Masquerade) Tick(t bus.BitTime, pending int, dst []can.Frame) []can.Frame {
	if t < m.SwitchBit {
		return m.Suspend.Tick(t, pending, dst)
	}
	return m.Fabricate.Tick(t, pending, dst)
}

// NewMasquerade builds the two-phase masquerade attacker: suspend the victim
// by flooding just below its ID until switchBit, then fabricate the victim's
// frames with forged payloads.
func NewMasquerade(name string, victim can.ID, forged []byte, switchBit bus.BitTime, periodBits int64) *Attacker {
	data := make([]byte, len(forged))
	copy(data, forged)
	suspendID := victim
	if suspendID > 0 {
		suspendID--
	}
	return New(name, &Masquerade{
		Suspend:   &Flood{Frame: can.Frame{ID: suspendID, Data: make([]byte, 8)}},
		Fabricate: &Flood{Frame: can.Frame{ID: victim, Data: data}, PeriodBits: periodBits},
		SwitchBit: switchBit,
	})
}
