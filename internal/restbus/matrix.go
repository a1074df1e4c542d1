// Package restbus provides the benign-traffic substrate of the evaluation
// (Sec. V-A): communication matrices in the spirit of OpenDBC for four
// production vehicles with two CAN buses each, and a replayer that injects
// that traffic onto the simulated bus — the paper's PCAN-USB restbus
// simulation.
//
// The paper replays traces captured from real 2016–2019 vehicles of one OEM;
// those traces are proprietary, so the matrices here are synthetic but
// deterministic (seeded per vehicle/bus) with realistic ID ranges, payload
// sizes, and periods. The experiments only depend on which IDs exist, their
// relative priorities, and their periods — exactly what a communication
// matrix defines.
package restbus

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"michican/internal/bus"
	"michican/internal/can"
)

// Message is one periodic CAN message of a communication matrix.
type Message struct {
	// ID is the message identifier (unique per matrix; one transmitter per
	// ID, per the paper's Sec. IV-A assumption).
	ID can.ID
	// Transmitter names the ECU that owns the ID.
	Transmitter string
	// DLC is the payload length (0-8).
	DLC int
	// Period is the transmission period.
	Period time.Duration
}

// Matrix is the communication matrix of one vehicle CAN bus.
type Matrix struct {
	// Vehicle and Bus identify the source (e.g. "Veh. D", "powertrain").
	Vehicle, Bus string
	// Messages are sorted by ascending ID.
	Messages []Message
}

// IDs returns the matrix's identifiers in ascending order.
func (m *Matrix) IDs() []can.ID {
	out := make([]can.ID, len(m.Messages))
	for i, msg := range m.Messages {
		out[i] = msg.ID
	}
	return out
}

// MinPeriod returns the shortest message period — the deadline class of the
// bus's most demanding traffic.
func (m *Matrix) MinPeriod() time.Duration {
	if len(m.Messages) == 0 {
		return 0
	}
	min := m.Messages[0].Period
	for _, msg := range m.Messages[1:] {
		if msg.Period < min {
			min = msg.Period
		}
	}
	return min
}

// Load computes the static bus load b = s_f/f_baud · Σ 1/p_m (Sec. V-E,
// [58]) at the given bus rate, using the per-message frame length with the
// average stuffing overhead the paper assumes (s_f ≈ 125 bits for 8-byte
// frames).
func (m *Matrix) Load(rate bus.Rate) float64 {
	if rate <= 0 {
		return 0
	}
	var load float64
	for _, msg := range m.Messages {
		if msg.Period <= 0 {
			continue
		}
		sf := avgWireLen(msg.DLC)
		perSecond := float64(time.Second) / float64(msg.Period)
		load += sf * perSecond / float64(rate)
	}
	return load
}

// avgWireLen estimates the on-wire frame length including average stuff-bit
// overhead: the nominal 44+8n bits plus ~10% stuffing over the stuffed
// region, landing at the paper's s_f = 125 for n = 8.
func avgWireLen(dlc int) float64 {
	nominal := float64(can.NominalFrameLen(dlc))
	stuffed := float64(can.UnstuffedLen(dlc)) * 0.16
	return nominal + stuffed
}

// VehicleID selects one of the paper's four test vehicles (Sec. V-A).
type VehicleID int

// The four production vehicles of Sec. V-A.
const (
	// VehA is the luxury mid-size sedan.
	VehA VehicleID = iota + 1
	// VehB is the compact crossover SUV.
	VehB
	// VehC is the full-size crossover SUV.
	VehC
	// VehD is the full-size pickup truck (used for the restbus traffic).
	VehD
)

// String names the vehicle as in the paper.
func (v VehicleID) String() string {
	switch v {
	case VehA:
		return "Veh. A (luxury mid-size sedan)"
	case VehB:
		return "Veh. B (compact crossover SUV)"
	case VehC:
		return "Veh. C (full-size crossover SUV)"
	case VehD:
		return "Veh. D (full-size pickup truck)"
	default:
		return fmt.Sprintf("VehicleID(%d)", int(v))
	}
}

// Vehicles lists all four test vehicles.
func Vehicles() []VehicleID { return []VehicleID{VehA, VehB, VehC, VehD} }

// Buses returns the two communication matrices (powertrain and body CAN) of
// a vehicle. The matrices are deterministic per vehicle.
func Buses(v VehicleID) []*Matrix {
	seed := int64(v) * 7919
	return []*Matrix{
		synthMatrix(v.String(), "powertrain", rand.New(rand.NewSource(seed)), matrixSpec{
			messages:  22 + int(v)*2,
			idLo:      0x0C0,
			idHi:      0x4FF,
			periodsMs: []int{10, 10, 20, 20, 50, 100},
			dlcs:      []int{8, 8, 8, 6, 4},
		}),
		synthMatrix(v.String(), "body", rand.New(rand.NewSource(seed+1)), matrixSpec{
			messages:  16 + int(v),
			idLo:      0x200,
			idHi:      0x7F0,
			periodsMs: []int{100, 100, 200, 500, 1000},
			dlcs:      []int{8, 8, 6, 4, 2},
		}),
	}
}

// matrixSpec parameterizes synthetic matrix generation.
type matrixSpec struct {
	messages   int
	idLo, idHi can.ID
	periodsMs  []int
	dlcs       []int
}

// synthMatrix draws a deterministic matrix from the spec.
func synthMatrix(vehicle, busName string, rng *rand.Rand, spec matrixSpec) *Matrix {
	seen := make(map[can.ID]bool, spec.messages)
	msgs := make([]Message, 0, spec.messages)
	for len(msgs) < spec.messages {
		id := spec.idLo + can.ID(rng.Intn(int(spec.idHi-spec.idLo)+1))
		if seen[id] {
			continue
		}
		seen[id] = true
		msgs = append(msgs, Message{
			ID:          id,
			Transmitter: fmt.Sprintf("ECU-%02d", len(msgs)+1),
			DLC:         spec.dlcs[rng.Intn(len(spec.dlcs))],
			Period:      time.Duration(spec.periodsMs[rng.Intn(len(spec.periodsMs))]) * time.Millisecond,
		})
	}
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].ID < msgs[j].ID })
	return &Matrix{Vehicle: vehicle, Bus: busName, Messages: msgs}
}
