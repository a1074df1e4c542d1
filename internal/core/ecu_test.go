package core

import (
	"testing"

	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
)

// TestScheduleSkipsWhilePending checks the periodic-send rule: every due
// instance is enqueued while the previous ones get out, and an instance due
// while its predecessor is still queued (no node acks it) is skipped, not
// queued behind it.
func TestScheduleSkipsWhilePending(t *testing.T) {
	for _, acked := range []bool{true, false} {
		b := bus.New(bus.Rate50k)
		host := controller.New(controller.Config{Name: "host"})
		ecu := NewECU(host, nil)
		calls := 0
		ecu.SetSchedule(Schedule{Period: 200, First: 5, Frame: func() can.Frame {
			calls++
			return can.Frame{ID: 0x123, Data: []byte{byte(calls)}}
		}})
		b.Attach(ecu)
		if acked {
			b.Attach(controller.New(controller.Config{Name: "peer"}))
		}
		b.Run(1000) // due at 5, 205, 405, 605 and 805
		wantCalls, wantTx := 5, 5
		if !acked {
			wantCalls, wantTx = 1, 0
		}
		if calls != wantCalls || host.Stats().TxSuccess != wantTx {
			t.Errorf("acked=%v: %d instances enqueued, %d sent; want %d and %d",
				acked, calls, host.Stats().TxSuccess, wantCalls, wantTx)
		}
		if ecu.NextWake() != 1005 {
			t.Errorf("acked=%v: next wake %d, want 1005", acked, ecu.NextWake())
		}
	}
}
