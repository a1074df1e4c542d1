package bus_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/restbus"
	"michican/internal/trace"
)

// mixedRateGroup builds a two-domain network — a 500 kbit/s powertrain bus
// and a 125 kbit/s body bus, each carrying its own periodic restbus traffic
// with an ACKing peer — plus a full-trace recorder tap per bus.
func mixedRateGroup(t *testing.T, ff bool) (*bus.Group, *bus.Bus, *bus.Bus, *trace.Recorder, *trace.Recorder) {
	t.Helper()
	ptMatrix := &restbus.Matrix{Vehicle: "test", Bus: "powertrain", Messages: []restbus.Message{
		{ID: 0x0C1, Transmitter: "ecm", DLC: 8, Period: 2 * time.Millisecond},
		{ID: 0x1A4, Transmitter: "tcm", DLC: 4, Period: 5 * time.Millisecond},
	}}
	bodyMatrix := &restbus.Matrix{Vehicle: "test", Bus: "body", Messages: []restbus.Message{
		{ID: 0x2F0, Transmitter: "bcm", DLC: 6, Period: 8 * time.Millisecond},
		{ID: 0x4D3, Transmitter: "dcm", DLC: 2, Period: 20 * time.Millisecond},
	}}

	pt := bus.New(bus.Rate500k)
	body := bus.New(bus.Rate125k)
	if !ff {
		pt.SetLadder(bus.RungExact)
		body.SetLadder(bus.RungExact)
	}

	pt.Attach(restbus.NewReplayer("pt-restbus", ptMatrix, bus.Rate500k, rand.New(rand.NewSource(3))))
	pt.Attach(controller.New(controller.Config{Name: "pt-peer", AutoRecover: true}))
	body.Attach(restbus.NewReplayer("body-restbus", bodyMatrix, bus.Rate125k, rand.New(rand.NewSource(4))))
	body.Attach(controller.New(controller.Config{Name: "body-peer", AutoRecover: true}))

	ptRec, bodyRec := trace.NewRecorder(), trace.NewRecorder()
	pt.AttachTap(ptRec)
	body.AttachTap(bodyRec)
	return bus.NewGroup(pt, body), pt, body, ptRec, bodyRec
}

// TestGroupMixedRateFastForwardIdentity runs the same two-domain scenario
// with each member bus pinned to exact stepping and with its default ladder
// and requires bit-identical wire traces on both buses: the group's
// lockstep steps every bit either way.
func TestGroupMixedRateFastForwardIdentity(t *testing.T) {
	const d = 100 * time.Millisecond

	exactGrp, exactPT, exactBody, exactPTRec, exactBodyRec := mixedRateGroup(t, false)
	exactGrp.RunFor(d)
	if exactPT.FastForwardedBits() != 0 || exactBody.FastForwardedBits() != 0 {
		t.Fatal("exact group run fast-forwarded")
	}

	ffGrp, ffPT, ffBody, ffPTRec, ffBodyRec := mixedRateGroup(t, true)
	ffGrp.RunFor(d)

	if exactPT.Now() != ffPT.Now() || exactBody.Now() != ffBody.Now() {
		t.Fatalf("clock divergence: exact (%d,%d), ff (%d,%d)",
			exactPT.Now(), exactBody.Now(), ffPT.Now(), ffBody.Now())
	}
	compareTraces(t, "powertrain", exactPTRec.Bits(), ffPTRec.Bits())
	compareTraces(t, "body", exactBodyRec.Bits(), ffBodyRec.Bits())
}

func compareTraces(t *testing.T, name string, exact, ff []can.Level) {
	t.Helper()
	if len(exact) == 0 {
		t.Fatalf("%s: empty exact trace", name)
	}
	if !reflect.DeepEqual(exact, ff) {
		i := 0
		for i < len(exact) && i < len(ff) && exact[i] == ff[i] {
			i++
		}
		t.Fatalf("%s: traces diverge at bit %d (exact %d bits, ff %d bits)",
			name, i, len(exact), len(ff))
	}
}
