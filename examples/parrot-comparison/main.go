// Parrot comparison: the Sec. V-E head-to-head between MichiCAN and the
// Parrot baseline against the same persistent spoofing attacker. Parrot
// detects only after a complete spoofed frame and then floods the bus to
// collide with the attacker (≈97.7% load); MichiCAN detects during
// arbitration and needs only a 7-bit pull per attempt.
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
	"michican/internal/parrot"
	"michican/internal/trace"
)

const victimID = 0x173

func main() {
	m, err := scenario("MichiCAN")
	if err != nil {
		log.Fatal(err)
	}
	p, err := scenario("Parrot")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== verdict ===")
	fmt.Printf("bus-off time:   MichiCAN %6d bits   Parrot %6d bits  (%.1fx)\n",
		m.busOffBits, p.busOffBits, float64(p.busOffBits)/float64(m.busOffBits))
	fmt.Printf("peak bus load:  MichiCAN %5.1f%%      Parrot %5.1f%%\n",
		m.peakLoad*100, p.peakLoad*100)
	fmt.Printf("frames leaked:  MichiCAN %d           Parrot %d (first instance = detection)\n",
		m.leaked, p.leaked)
}

type result struct {
	busOffBits int64
	peakLoad   float64
	leaked     int
}

func scenario(system string) (result, error) {
	fmt.Printf("=== %s vs persistent spoofer on %s ===\n", system, bus.Rate50k)
	b := bus.New(bus.Rate50k)
	rec := trace.NewRecorder()
	b.AttachTap(rec)

	// A witness ECU provides ACKs, as on any real bus.
	b.Attach(controller.New(controller.Config{Name: "witness", AutoRecover: true}))

	switch system {
	case "MichiCAN":
		def, err := core.NewFor([]can.ID{0x064, victimID, 0x300}, victimID, core.Config{Name: "michican"})
		if err != nil {
			return result{}, err
		}
		b.Attach(core.NewECU(controller.New(controller.Config{Name: "victim", AutoRecover: true}), def))
	case "Parrot":
		b.Attach(parrot.New(parrot.Config{Name: "parrot", OwnID: victimID}))
	}

	att := attack.NewFabrication("spoofer", victimID,
		[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 0)
	b.Attach(att)

	start := b.Now()
	var busOffAt bus.BitTime = -1
	deadline := bus.Rate50k.Bits(2 * time.Second)
	for i := int64(0); i < deadline; i++ {
		b.Step()
		if busOffAt < 0 && att.Controller().Stats().BusOffEvents > 0 {
			busOffAt = b.Now()
			break
		}
	}
	if busOffAt < 0 {
		return result{}, fmt.Errorf("%s never bused the attacker off", system)
	}

	events := trace.Decode(rec.Bits(), rec.Start())
	loads := trace.WindowedLoad(rec.Bits(), events, rec.Start(), 500)
	peak := 0.0
	for _, l := range loads {
		if l > peak {
			peak = l
		}
	}
	res := result{
		busOffBits: int64(busOffAt - start),
		peakLoad:   peak,
		leaked:     att.Controller().Stats().TxSuccess,
	}
	fmt.Printf("attacker bused off after %d bits (%v); peak load %.1f%%; %d spoofed frames leaked\n\n",
		res.busOffBits, bus.Rate50k.Duration(res.busOffBits), res.peakLoad*100, res.leaked)
	return res, nil
}
