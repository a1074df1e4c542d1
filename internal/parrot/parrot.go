// Package parrot implements the Parrot baseline (Dagan & Wool [18]), the
// closest prior work the paper compares against (Sec. I, V-E).
//
// Parrot is a software-only anti-spoofing defense: each ECU listens for
// complete frames carrying its own CAN ID. The first spoofed instance is
// used purely for detection; from the second instance on, Parrot launches a
// brute-force counterattack — it floods the bus with frames carrying the
// same ID and an all-dominant payload so that one of them collides bit-for-
// bit with the attacker's next retransmission and destroys it. The flood is
// Parrot's weakness: during a counterattack the bus load approaches 100%
// (the paper computes 125/128 ≈ 97.7%), all other traffic is starved, and
// detection happens only after a complete frame rather than during
// arbitration.
package parrot

import (
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
)

// Stats accumulates a Parrot defender's observable behaviour.
type Stats struct {
	// Detections counts spoofed frames observed (complete frames carrying
	// the defender's own ID).
	Detections int
	// FloodFrames counts counterattack frames enqueued.
	FloodFrames int
	// CounterattackBits counts bit times spent in counterattack mode — the
	// window during which Parrot monopolizes the bus.
	CounterattackBits int64
	// Collisions counts transmit errors during counterattacks (flood frames
	// that actually met the attacker on the wire).
	Collisions int
}

// Config parameterizes a Parrot defender.
type Config struct {
	// Name identifies the defender.
	Name string
	// OwnID is the CAN ID this ECU transmits and therefore defends.
	OwnID can.ID
	// QuietFrames is the number of consecutive uncontested flood frames
	// after which Parrot concludes the attacker is gone and stands down.
	// Defaults to 16.
	QuietFrames int
	// MaxTEC caps the defender's own transmit error counter: when reached,
	// Parrot pauses flooding until a success brings it down, so the defense
	// does not bus itself off alongside the attacker. The default of 200
	// deliberately lets Parrot ride the error-active collision lockstep
	// (both TECs climb to 128 together) into the error-passive regime,
	// where the attacker's passive error flags stop destroying the flood
	// frames and only the attacker keeps bleeding TEC. Defaults to 200.
	MaxTEC int
	// OnDetect fires on each spoofed frame observed.
	OnDetect func(t bus.BitTime)
}

// Defender is a Parrot-equipped ECU. It implements bus.Node.
type Defender struct {
	cfg   Config
	ctl   *controller.Controller
	stats Stats

	counterattacking bool
	quietRun         int
	// spoofDLC mirrors the payload length of the observed spoofed frame:
	// the flood frame must match the attacker's DLC bit-for-bit, otherwise a
	// shorter attacker DLC (leading dominant bit) would win the collision
	// and destroy the flood frame instead.
	spoofDLC int
}

var _ bus.Node = (*Defender)(nil)

// zeroPayload backs every flood frame, sliced to the spoofed frame's length
// and never written; Enqueue queues the payload copy of the frame's plan.
var zeroPayload [can.MaxFDDataLen]byte

// New creates a Parrot defender.
func New(cfg Config) *Defender {
	if cfg.QuietFrames <= 0 {
		cfg.QuietFrames = 16
	}
	if cfg.MaxTEC <= 0 {
		cfg.MaxTEC = 200
	}
	d := &Defender{cfg: cfg}
	d.ctl = controller.New(controller.Config{
		Name:        cfg.Name,
		AutoRecover: true,
		OnReceive:   d.onReceive,
		OnTransmit:  d.onTransmit,
		OnError:     d.onError,
	})
	return d
}

// Controller exposes the defender's protocol controller.
func (d *Defender) Controller() *controller.Controller { return d.ctl }

// Stats returns a copy of the accumulated statistics.
func (d *Defender) Stats() Stats { return d.stats }

// Counterattacking reports whether the flood is currently active.
func (d *Defender) Counterattacking() bool { return d.counterattacking }

// Enqueue schedules one of the ECU's legitimate frames.
func (d *Defender) Enqueue(f can.Frame) error { return d.ctl.Enqueue(f) }

// onReceive fires for every complete frame on the bus. A frame carrying the
// defender's own ID was necessarily sent by another node — a spoof. The
// first instance only arms the counterattack (Parrot's extra latency versus
// MichiCAN); the flood starts immediately after.
func (d *Defender) onReceive(t bus.BitTime, f can.Frame) {
	if f.ID != d.cfg.OwnID {
		return
	}
	d.stats.Detections++
	if d.cfg.OnDetect != nil {
		d.cfg.OnDetect(t)
	}
	d.counterattacking = true
	d.quietRun = 0
	d.spoofDLC = len(f.Data)
}

// onTransmit tracks uncontested flood frames to decide when to stand down.
func (d *Defender) onTransmit(_ bus.BitTime, f can.Frame) {
	if !d.counterattacking || f.ID != d.cfg.OwnID {
		return
	}
	d.quietRun++
	if d.quietRun >= d.cfg.QuietFrames {
		d.counterattacking = false
	}
}

// onError counts collisions: a transmit error during the counterattack means
// a flood frame met the attacker's retransmission.
func (d *Defender) onError(_ bus.BitTime, _ controller.ErrorKind, transmitting bool) {
	if d.counterattacking && transmitting {
		d.stats.Collisions++
		d.quietRun = 0
	}
}

// Drive implements bus.Node.
func (d *Defender) Drive(t bus.BitTime) can.Level { return d.ctl.Drive(t) }

// Observe implements bus.Node: while counterattacking, keep the mailbox
// topped up with all-dominant-payload flood frames so one starts back-to-
// back with every attacker retransmission.
func (d *Defender) Observe(t bus.BitTime, level can.Level) {
	if d.counterattacking {
		d.stats.CounterattackBits++
		if d.ctl.PendingTx() == 0 && d.ctl.TEC() < d.cfg.MaxTEC {
			// All-zero payload at the attacker's DLC: every contested bit is
			// dominant, so the flood frame wins the collision and the
			// attacker takes the error. In the error-active phase the
			// attacker's active flag still destroys the flood frame too
			// (both TECs ramp); once both nodes are error-passive the
			// attacker's flag turns recessive, the flood frame completes,
			// and only the attacker keeps bleeding TEC — Parrot survives.
			if err := d.ctl.Enqueue(can.Frame{ID: d.cfg.OwnID, Data: zeroPayload[:d.spoofDLC]}); err == nil {
				d.stats.FloodFrames++
			}
		}
	}
	d.ctl.Observe(t, level)
}
