// Package memotest checks a memo.Table at its bounds. Each owner of a table
// runs CheckBounds on a table built by its own constructor, so the initial
// size, growth trigger and cap it tests are the ones the simulator uses.
package memotest

import (
	"testing"

	"michican/internal/memo"
)

// CheckBounds drives tab, which must be fresh, with a stream of distinct
// keys ten times its cap of 2^maxBits slots, key(i) and val(i) giving the
// i-th key and a nonzero value. It fails t unless:
//   - tab starts at 2^memo.InitialBits slots;
//   - it doubles on exactly the install that brings the installs since its
//     last resize to half its slots, and not one install earlier;
//   - every entry resident before a doubling still hits after it, except
//     at most one the triggering install evicts from its own set;
//   - its slot count stays a power of two no larger than the cap, and the
//     stream leaves it at the cap.
func CheckBounds[K, V comparable](t *testing.T, tab *memo.Table[K, V], maxBits int,
	key func(i int) K, val func(i int) V) {
	t.Helper()
	var zero V
	if got, want := tab.Slots(), 1<<memo.InitialBits; got != want {
		t.Fatalf("fresh table: %d slots, want %d", got, want)
	}
	limit := 1 << maxBits
	installs := 0 // since the last resize
	growths := 0
	for i := 0; i < 10*limit; i++ {
		before := tab.Slots()
		var resident []int
		if installs+1 == before/2 && before < limit {
			// This install triggers a doubling: note what hits before it.
			for j := i - installs; j < i; j++ {
				if tab.Get(key(j)) == val(j) {
					resident = append(resident, j)
				}
			}
		}
		tab.Put(key(i), val(i))
		installs++
		after := tab.Slots()
		switch {
		case after > limit || after&(after-1) != 0:
			t.Fatalf("install %d: %d slots, want a power of two ≤ %d", i, after, limit)
		case after == before && installs == before/2 && before < limit:
			t.Fatalf("install %d: %d slots did not double at %d installs", i, before, installs)
		case after != before && after != 2*before:
			t.Fatalf("install %d: %d slots became %d, want a doubling", i, before, after)
		case after != before && installs != before/2:
			t.Fatalf("install %d: %d slots doubled after %d installs, want %d", i, before, installs, before/2)
		}
		if after == before {
			continue
		}
		growths++
		installs = 0
		if got := tab.Get(key(i)); got != val(i) {
			t.Fatalf("growth to %d slots: the triggering install misses", after)
		}
		lost := 0
		for _, j := range resident {
			if got := tab.Get(key(j)); got == zero {
				lost++
			} else if got != val(j) {
				t.Fatalf("growth to %d slots: key %d returns another key's value", after, j)
			}
		}
		if lost > 1 {
			t.Fatalf("growth to %d slots: %d of %d resident entries lost", after, lost, len(resident))
		}
	}
	if got := tab.Slots(); got != limit {
		t.Fatalf("after %d distinct installs: %d slots, want the cap %d", 10*limit, got, limit)
	}
	if want := maxBits - memo.InitialBits; growths != want {
		t.Fatalf("%d doublings from 2^%d to 2^%d slots, want %d", growths, memo.InitialBits, maxBits, want)
	}
}
