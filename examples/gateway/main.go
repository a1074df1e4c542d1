// Gateway: a two-domain vehicle (500 kbit/s powertrain bridged to a
// 125 kbit/s body bus) with MichiCAN deployed on the gateway. An attacker on
// the body bus — the usual entry point via telematics or OBD-II — floods a
// high-priority ID; the body-side MichiCAN eradicates it, the filtering
// gateway keeps the powertrain untouched, and forwarding of the legitimate
// cross-domain message continues throughout.
package main

import (
	"fmt"
	"log"
	"time"

	"michican/internal/attack"
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/core"
	"michican/internal/gateway"
	"michican/internal/restbus"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	powertrain := bus.New(bus.Rate500k)
	body := bus.New(bus.Rate125k)
	grp := bus.NewGroup(powertrain, body)

	// The gateway forwards only the vehicle-speed broadcast into the body
	// domain (for the instrument cluster).
	gw := gateway.New("gateway", gateway.AllowIDs(0x0C4))
	p0, err := gw.Port(0)
	if err != nil {
		return err
	}
	p1, err := gw.Port(1)
	if err != nil {
		return err
	}
	powertrain.Attach(p0)
	body.Attach(p1)

	// Powertrain traffic (incl. the forwarded 0x0C4) and a body-domain ECU.
	ptTraffic := restbus.NewReplayer("powertrain", &restbus.Matrix{Messages: []restbus.Message{
		{ID: 0x0C4, Transmitter: "ECM", DLC: 8, Period: 20 * time.Millisecond},
		{ID: 0x1A0, Transmitter: "TCM", DLC: 8, Period: 20 * time.Millisecond},
	}}, bus.Rate500k, nil)
	powertrain.Attach(ptTraffic)
	bodyTraffic := restbus.NewReplayer("body", &restbus.Matrix{Messages: []restbus.Message{
		{ID: 0x300, Transmitter: "BCM", DLC: 4, Period: 50 * time.Millisecond},
	}}, bus.Rate125k, nil)
	body.Attach(bodyTraffic)

	// Cluster on the body bus consumes the forwarded speed message.
	speedFrames := 0
	body.Attach(controller.New(controller.Config{Name: "cluster", AutoRecover: true,
		OnReceive: func(_ bus.BitTime, f can.Frame) {
			if f.ID == 0x0C4 {
				speedFrames++
			}
		}}))

	// MichiCAN on the body side: legitimate body IDs are 0x0C4 (forwarded)
	// and 0x300; the defense guards from the top of the body ID space.
	def, err := core.NewFor([]can.ID{0x0C4, 0x300, 0x7F0}, 0x7F0, core.Config{Name: "body-michican"})
	if err != nil {
		return err
	}
	body.Attach(def)

	grp.RunFor(300 * time.Millisecond)
	fmt.Printf("healthy: cluster received %d forwarded speed frames, body deadline misses %d\n",
		speedFrames, bodyTraffic.Stats().DeadlineMisses)

	fmt.Println("\n>>> compromised telematics unit floods ID 0x010 on the BODY bus")
	att := attack.NewTargetedDoS("telematics", 0x010)
	body.Attach(att)
	grp.RunFor(700 * time.Millisecond)

	fmt.Printf("attacker: %d bus-off events, %d frames delivered\n",
		att.Controller().Stats().BusOffEvents, att.Controller().Stats().TxSuccess)
	fmt.Printf("defense: %d detections, %d counterattacks\n",
		def.Stats().Detections, def.Stats().Counterattacks)
	fmt.Printf("powertrain: %d frames delivered, %d deadline misses (domain isolated)\n",
		ptTraffic.Stats().Transmitted, ptTraffic.Stats().DeadlineMisses)
	fmt.Printf("cluster kept receiving speed frames: %d total\n", speedFrames)

	if att.Controller().Stats().BusOffEvents == 0 {
		return fmt.Errorf("attacker not eradicated")
	}
	if ptTraffic.Stats().DeadlineMisses != 0 {
		return fmt.Errorf("attack crossed into the powertrain")
	}
	return nil
}
