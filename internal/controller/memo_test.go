package controller

import (
	"testing"

	"michican/internal/can"
)

// TestMemoTablesAtBounds checks the plan front cache, as planFor fills it,
// at its bound: planSlotsMax distinct frames fill it exactly, a further
// frame is served by the plan source without being installed, and the
// resident frames keep hitting.
func TestMemoTablesAtBounds(t *testing.T) {
	t.Run("plan", func(t *testing.T) {
		src := NewPlanSource()
		c := New(Config{Name: "c"})
		c.SetPlanSource(src)
		frame := func(i int) can.Frame {
			return can.Frame{ID: can.ID(i & 0x7FF), Data: []byte{byte(i >> 11), byte(i >> 19)}}
		}
		if got := c.MemoSlots(); got != 0 {
			t.Fatalf("fresh controller: %d entries, want 0", got)
		}
		first := c.planFor(frame(0))
		for i := 1; i < planSlotsMax; i++ {
			c.planFor(frame(i))
		}
		if got := c.MemoSlots(); got != planSlotsMax {
			t.Fatalf("after %d distinct frames: %d entries, want %d", planSlotsMax, got, planSlotsMax)
		}
		f := frame(planSlotsMax)
		p := c.planFor(f)
		if got := c.MemoSlots(); got != planSlotsMax {
			t.Fatalf("a frame past the bound was installed: %d entries, want %d", got, planSlotsMax)
		}
		if want := src.plan(keyOf(&f), &f, false); p != want {
			t.Fatal("a frame past the bound got another plan than the source hands out")
		}
		if p.id < 0 {
			t.Fatal("a frame past the bound got an unpublished plan")
		}
		if c.planFor(frame(0)) != first {
			t.Fatal("a resident frame no longer hits its cached plan")
		}
	})
}
