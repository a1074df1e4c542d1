package experiment

import (
	"fmt"

	"michican/internal/attack"
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/forensics"
	"michican/internal/restbus"
	"michican/internal/telemetry"
	"michican/internal/trace"
	"michican/internal/watch"
)

// This file builds the fleet's unit of work: a complete, self-contained
// vehicle simulation (restbus + MichiCAN-defended ECU + attacker mix) that
// satisfies the fleet package's Vehicle interface. Everything a vehicle
// touches — bus, RNG, telemetry hub, forensics engine, recorder — is owned
// by the vehicle, so thousands of them advance on shared-nothing workers
// with per-vehicle results bit-identical for any worker count or churn
// order; the only cross-vehicle coupling is the fleet's immutable plan cache
// and the net-commit of counter deltas the fleet layer applies from outside.

// FleetAttack selects a vehicle's attacker mix (the Sec. V-C scenarios).
type FleetAttack string

// The attacker mixes a fleet vehicle can carry.
const (
	// FleetAttackNone is a benign vehicle: restbus plus the defended ECU.
	FleetAttackNone FleetAttack = "none"
	// FleetAttackSpoof spoofs the defender's own 0x173 (Experiment 1).
	FleetAttackSpoof FleetAttack = "spoof"
	// FleetAttackDoS floods the illegitimate high-priority 0x064
	// (Experiment 3).
	FleetAttackDoS FleetAttack = "dos"
	// FleetAttackToggle alternates 0x050/0x051 to dodge per-ID bus-off
	// (Experiment 6).
	FleetAttackToggle FleetAttack = "toggle"
)

// FleetVehicleSpec fully determines one fleet vehicle: same spec ⇒ bit-
// identical trace and incident log, which is the determinism contract the
// fleet tests assert across worker counts and join orders.
type FleetVehicleSpec struct {
	// Index is the vehicle's fleet-unique id.
	Index int
	// Seed drives the vehicle's restbus phases (derive via DeriveSeed from
	// the fleet seed).
	Seed int64
	// Load is the offered restbus load (0 disables the restbus).
	Load float64
	// Mode is the stepping mode (default ModeSpliceFF — the full ladder).
	Mode SteppingMode
	// Attack is the attacker mix.
	Attack FleetAttack
	// HorizonBits retires the vehicle after this much simulated time
	// (0 = run until removed).
	HorizonBits int64
	// Record attaches a wire recorder (the determinism tests' witness;
	// costs memory, leave off for throughput runs).
	Record bool
	// Watch attaches a live SLO/alerting engine (internal/watch) to the
	// vehicle's hub and forensics engine. Part of the spec (and therefore of
	// durable-store meta) because the alert log it produces is persisted —
	// a resumed run must regenerate it identically.
	Watch bool
	// Plans, when set, is the compiled-plan cache every controller of the
	// vehicle resolves frames through (nil: fleet.Add wires in the fleet's).
	// Purely a memory/compile-time optimization — traces are bit-identical
	// with and without it (the determinism tests pin that), so it is
	// excluded from the spec's determinism identity and from durable-store
	// spec serialization.
	Plans *controller.PlanSource `json:"-"`
}

// fleetAttackIDs lists the CAN IDs a mix injects (excluded from the benign
// matrix, except the spoofed defender ID which is legitimately present).
func fleetAttackIDs(a FleetAttack) []can.ID {
	switch a {
	case FleetAttackSpoof:
		return []can.ID{DefenderID}
	case FleetAttackDoS:
		return []can.ID{0x064}
	case FleetAttackToggle:
		return []can.ID{0x050, 0x051}
	default:
		return nil
	}
}

// fleetAttackers builds the mix's attacker nodes.
func fleetAttackers(a FleetAttack) []*attack.Attacker {
	switch a {
	case FleetAttackSpoof:
		return []*attack.Attacker{attack.NewTargetedDoS("attacker", DefenderID)}
	case FleetAttackDoS:
		return []*attack.Attacker{attack.NewTargetedDoS("attacker", 0x064)}
	case FleetAttackToggle:
		return []*attack.Attacker{attack.NewToggling("attacker", 0x050, 0x051)}
	default:
		return nil
	}
}

// FleetVehicle is one running vehicle simulation implementing the fleet
// package's Vehicle interface. Advance/Now/Finalize are worker-owned; Hub
// and LiveIncidents are safe for concurrent observability reads.
type FleetVehicle struct {
	defendedBus
	spec      FleetVehicleSpec
	stack     *Stack
	finalized bool
}

// NewFleetVehicle builds the vehicle from its spec.
func NewFleetVehicle(spec FleetVehicleSpec) (*FleetVehicle, error) {
	db, err := newDefendedBus(spec.busSpec())
	if err != nil {
		return nil, fmt.Errorf("fleet vehicle %d: %w", spec.Index, err)
	}
	return spec.vehicle(db, StackConfig{}), nil
}

// busSpec is the vehicle's defended bus at 50 kbit/s, wired into a hub of
// its own.
func (s FleetVehicleSpec) busSpec() busSpec {
	b := busSpec{rate: bus.Rate50k, mode: s.Mode, seed: s.Seed, exclude: fleetAttackIDs(s.Attack),
		sends: true, attackers: fleetAttackers(s.Attack), hub: telemetry.NewHub(), record: s.Record, plans: s.Plans}
	if s.Load > 0 {
		b.matrix, b.load = restbus.Buses(restbus.VehD)[0], s.Load
	}
	return b
}

// vehicle wraps the vehicle's built bus and attaches its stack: forensics,
// watch when the spec asks for it, and cfg's store. The bus registered
// every node probe, so the watch engine's probe takes the last node ID, and
// no bit has run, so the stack sees the whole stream.
func (s FleetVehicleSpec) vehicle(db defendedBus, cfg StackConfig) *FleetVehicle {
	if s.Mode == "" {
		s.Mode = ModeSpliceFF
	}
	cfg.Forensics, cfg.Watch = true, s.Watch
	return &FleetVehicle{defendedBus: db, spec: s, stack: NewStack(db.hub, cfg)}
}

// SharePlans wires a plan cache into every controller of the vehicle, and
// the defense's splice summaries into the same scope (nil: each compiles
// privately). fleet.Add calls it, before the first Advance,
// on a vehicle built without spec.Plans — a resumed one, for instance.
func (v *FleetVehicle) SharePlans(src *controller.PlanSource) {
	v.spec.Plans = src
	v.sharePlans(src)
}

// PlanSource returns the vehicle's plan cache (nil: private compiles).
func (v *FleetVehicle) PlanSource() *controller.PlanSource { return v.spec.Plans }

// Watch returns the vehicle's live SLO engine (nil unless spec.Watch).
func (v *FleetVehicle) Watch() *watch.Engine { return v.stack.Watch }

// ID implements fleet.Vehicle.
func (v *FleetVehicle) ID() int { return v.spec.Index }

// HorizonBits implements fleet.Vehicle.
func (v *FleetVehicle) HorizonBits() int64 { return v.spec.HorizonBits }

// Hub implements fleet.Vehicle.
func (v *FleetVehicle) Hub() *telemetry.Hub { return v.hub }

// Now implements fleet.Vehicle (worker-owned; observability readers go
// through the fleet's atomic mirror).
func (v *FleetVehicle) Now() int64 { return int64(v.bus.Now()) }

// Spec returns the vehicle's spec.
func (v *FleetVehicle) Spec() FleetVehicleSpec { return v.spec }

// Recorder returns the attached wire recorder (nil unless spec.Record).
func (v *FleetVehicle) Recorder() *trace.Recorder { return v.recorder }

// Describe implements fleet.Vehicle.
func (v *FleetVehicle) Describe() string {
	return fmt.Sprintf("veh%03d load=%.0f%% mode=%s attack=%s seed=%d",
		v.spec.Index, v.spec.Load*100, v.spec.Mode, v.spec.Attack, v.spec.Seed)
}

// Advance implements fleet.Vehicle. The defended ECU owns its periodic
// sends (defenderSends), and the bus bounds every op at a send, so any
// slicing of the same horizon produces the same wire trace.
func (v *FleetVehicle) Advance(bits int64) { v.bus.Run(bits) }

// WarmPlans pre-compiles the vehicle's restbus transmit plans (all 256
// rolling-counter payload instances per message), the work the schedule
// otherwise does lazily over the first counter rotation. With a shared
// PlanSource the first vehicle fills the cache and every later one resolves
// by lookup, so fleet warm-up compile cost is paid once instead of N times.
func (v *FleetVehicle) WarmPlans() {
	if v.restbus != nil {
		v.restbus.WarmSplice(256)
	}
}

// LiveIncidents implements fleet.Vehicle.
func (v *FleetVehicle) LiveIncidents() []forensics.Incident { return v.stack.Forensics.Incidents() }

// Finalize implements fleet.Vehicle: flush the forensics engine and return
// the vehicle's complete incident log for hand-off.
func (v *FleetVehicle) Finalize() []forensics.Incident {
	eng := v.stack.Forensics
	if !v.finalized {
		v.finalized = true
		eng.Finalize(int64(v.bus.Now()))
		eng.Close()
	}
	return eng.Incidents()
}

// FleetSpecs derives n vehicle specs from one fleet seed. The attack
// distribution is deliberately skewed — most vehicles are benign, a
// minority carry spoof/DoS/toggle campaigns — and the load mix spans the
// throughput grid's cells, so a fleet run exercises idle-dominated and
// saturated vehicles side by side:
//
//	attack: 55% none, 20% spoof(0x173), 15% dos(0x064), 10% toggle
//	load:   20% @ 2%, 50% @ 30%, 30% @ 60%
//
// Each vehicle's draw comes from its own DeriveSeed stream, so the spec
// list for (fleetSeed, i) is stable regardless of n or generation order.
func FleetSpecs(fleetSeed int64, n int, horizonBits int64, record bool) []FleetVehicleSpec {
	specs := make([]FleetVehicleSpec, n)
	for i := range specs {
		specs[i] = FleetSpecAt(fleetSeed, i, horizonBits, record)
	}
	return specs
}

// FleetSpecAt derives the i-th vehicle's spec (churn drivers use it to mint
// joiners past the initial population without regenerating the list).
func FleetSpecAt(fleetSeed int64, i int, horizonBits int64, record bool) FleetVehicleSpec {
	rng := newRand(DeriveSeed(fleetSeed, i))
	spec := FleetVehicleSpec{
		Index:       i,
		Seed:        DeriveSeed(fleetSeed, i) ^ 0x5DEECE66D,
		Mode:        ModeSpliceFF,
		HorizonBits: horizonBits,
		Record:      record,
	}
	switch p := rng.Float64(); {
	case p < 0.55:
		spec.Attack = FleetAttackNone
	case p < 0.75:
		spec.Attack = FleetAttackSpoof
	case p < 0.90:
		spec.Attack = FleetAttackDoS
	default:
		spec.Attack = FleetAttackToggle
	}
	switch p := rng.Float64(); {
	case p < 0.20:
		spec.Load = 0.02
	case p < 0.70:
		spec.Load = 0.30
	default:
		spec.Load = 0.60
	}
	return spec
}
