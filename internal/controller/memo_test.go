package controller

import (
	"encoding/binary"
	"testing"

	"michican/internal/can"
	"michican/internal/memo/memotest"
)

// TestMemoTablesAtBounds checks the receive-span cache and the plan front
// cache, as the controller builds them, at their initial size, growth
// trigger and cap.
func TestMemoTablesAtBounds(t *testing.T) {
	t.Run("rx-span", func(t *testing.T) {
		levels := make([]can.Level, 10<<rxSpanSlotBits)
		snaps := []*rxSnapshot{{}, {}, {}}
		memotest.CheckBounds(t, newRxSpanCache(), rxSpanSlotBits,
			func(i int) rxSpanKey { return rxSpanKey{ptr: &levels[i], n: int32(1 + i%7)} },
			func(i int) *rxSnapshot { return snaps[i%len(snaps)] })
	})
	t.Run("plan", func(t *testing.T) {
		plans := []*txPlan{{}, {}, {}}
		memotest.CheckBounds(t, newPlanSlots(), planSlotBits,
			func(i int) planKey {
				k := planKey{id: can.ID(i & 0x7FF), dataLen: 8}
				binary.LittleEndian.PutUint64(k.data[:], uint64(i>>11))
				return k
			},
			func(i int) *txPlan { return plans[i%len(plans)] })
	})
}
