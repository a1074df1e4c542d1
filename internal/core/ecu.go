package core

import (
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/telemetry"
)

// ECU bundles an ordinary application CAN controller with the MichiCAN
// defense patch, sharing the same physical attachment point — the paper's
// picture of a defended node, where the integrated CAN controller keeps
// doing the ECU's normal job while the defense taps CAN_RX and occasionally
// commandeers CAN_TX through the pin mux.
type ECU struct {
	// Controller is the ECU's normal protocol controller (sends the ECU's
	// own traffic, ACKs, raises error flags).
	Controller *controller.Controller
	// Defense is the MichiCAN patch; nil for an unpatched ECU.
	Defense *Defense

	// sched is the host's periodic send (zero: none) and next its next due
	// bit.
	sched Schedule
	next  bus.BitTime
}

// Schedule is a host's periodic send: from bit First on, every Period (≥ 1)
// bits, the ECU enqueues Frame() before the due bit is driven, unless its
// controller still holds a pending frame. The send is best effort: an
// instance that finds its predecessor still queued (a spoof fight can stall
// it) is skipped, not queued behind it.
type Schedule struct {
	Period int64
	First  bus.BitTime
	Frame  func() can.Frame
}

var (
	_ bus.Node  = (*ECU)(nil)
	_ bus.Waker = (*ECU)(nil)
)

// NewECU wires a controller and an optional defense into one bus node. The
// defense learns to recognize the controller's own transmissions so it never
// counterattacks its host's legitimate frames.
func NewECU(c *controller.Controller, d *Defense) *ECU {
	if d != nil && d.cfg.SelfTransmitting == nil {
		d.cfg.SelfTransmitting = c.Transmitting
	}
	return &ECU{Controller: c, Defense: d}
}

// SetSchedule gives the ECU a periodic send; a zero Schedule stops it. Set
// it before attaching the ECU, because the bus reads a node's wake at
// Attach and after each Wake; stopping it is safe at any Run boundary.
func (e *ECU) SetSchedule(s Schedule) { e.sched, e.next = s, s.First }

// NextWake implements bus.Waker: the schedule's next due bit.
func (e *ECU) NextWake() bus.BitTime {
	if e.sched.Frame == nil {
		return bus.QuiescentForever
	}
	return e.next
}

// Wake implements bus.Waker: the due instance is enqueued unless the
// previous one is still pending.
func (e *ECU) Wake(now bus.BitTime) {
	if e.Controller.PendingTx() == 0 {
		_ = e.Controller.Enqueue(e.sched.Frame())
	}
	e.next = now + bus.BitTime(e.sched.Period)
}

// SetTelemetry wires both halves of the ECU to a telemetry hub: the
// controller under its configured name, the defense under its own.
func (e *ECU) SetTelemetry(hub *telemetry.Hub) {
	e.Controller.SetTelemetry(hub)
	if e.Defense != nil {
		e.Defense.SetTelemetry(hub)
	}
}

// Drive implements bus.Node: the wire sees the wired-AND of the controller's
// output and the defense's counterattack pull (they share the TX pin).
func (e *ECU) Drive(t bus.BitTime) can.Level {
	level := e.Controller.Drive(t)
	if e.Defense != nil {
		level = level.And(e.Defense.Drive(t))
	}
	return level
}

// Observe implements bus.Node: both halves sample the same CAN_RX line.
func (e *ECU) Observe(t bus.BitTime, level can.Level) {
	e.Controller.Observe(t, level)
	if e.Defense != nil {
		e.Defense.Observe(t, level)
	}
}
