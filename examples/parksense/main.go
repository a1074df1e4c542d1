// ParkSense: the paper's on-vehicle test (Sec. V-F) as a runnable scenario.
// A simulated 2017 Chrysler Pacifica Hybrid drives with its park-assist
// telemetry on the bus; a targeted DoS on CAN ID 0x25F (one below the
// feature's lowest ID 0x260) puts "PARKSENSE UNAVAILABLE SERVICE REQUIRED"
// on the dashboard; plugging the MichiCAN dongle into the OBD-II splitter
// eradicates the attack within 32 attempts and the feature comes back.
package main

import (
	"fmt"
	"log"
	"slices"
	"time"

	"michican/internal/attack"
	"michican/internal/bus"
	"michican/internal/core"
	"michican/internal/restbus"
	"michican/internal/vehicle"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rate := bus.Rate50k
	b := bus.New(rate)

	// The Pacifica: its communication matrix replayed by the body ECUs,
	// plus the instrument cluster watching the ParkSense telemetry.
	matrix := vehicle.Matrix()
	b.Attach(restbus.NewReplayer("pacifica", matrix, rate, nil))
	dash := vehicle.NewDashboard(rate)
	b.Attach(dash)

	b.RunFor(300 * time.Millisecond)
	fmt.Printf("t=0.3s  dashboard: %v\n", dash.Status())

	// Phase 1: the attack device on the OBD-II port, no defense.
	fmt.Printf("\n>>> plugging attack device into OBD-II, flooding %s (targeted DoS)\n",
		vehicle.AttackID)
	att := attack.NewTargetedDoS("obd-attacker", vehicle.AttackID)
	b.Attach(att)
	b.RunFor(500 * time.Millisecond)
	fmt.Printf("t=0.8s  dashboard: %v\n", dash.Status())
	if dash.Status() != vehicle.Unavailable {
		return fmt.Errorf("expected the DoS to disable ParkSense")
	}

	// Unplug, let the vehicle recover.
	b.Detach(att)
	b.RunFor(300 * time.Millisecond)
	fmt.Printf("t=1.1s  attack device unplugged; dashboard: %v\n", dash.Status())

	// Phase 2: the OBD-II Y-cable carries both the attacker and MichiCAN.
	fmt.Println("\n>>> plugging BOTH the attacker and the MichiCAN dongle (OBD-II splitter)")
	// The dongle guards from the top of the vehicle's ID space.
	ids := matrix.IDs()
	dongle, err := core.NewFor(ids, slices.Max(ids), core.Config{Name: "michican-dongle"})
	if err != nil {
		return err
	}
	b.Attach(dongle)
	att2 := attack.NewTargetedDoS("obd-attacker", vehicle.AttackID)
	b.Attach(att2)
	b.RunFor(2 * time.Second)

	st := att2.Controller().Stats()
	fmt.Printf("t=3.1s  dashboard: %v\n", dash.Status())
	fmt.Printf("attacker: %d attempts per bus-off cycle, %d bus-off events, 0 frames delivered (%d)\n",
		32, st.BusOffEvents, st.TxSuccess)
	fmt.Printf("dongle: %d detections, %d counterattacks\n",
		dongle.Stats().Detections, dongle.Stats().Counterattacks)
	if dash.Status() != vehicle.Available {
		return fmt.Errorf("ParkSense should be restored")
	}
	fmt.Println("\nParkSense restored — the DoS never disables the feature while MichiCAN is attached.")
	return nil
}
