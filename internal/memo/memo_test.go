package memo_test

import (
	"testing"

	"michican/internal/memo"
	"michican/internal/memo/memotest"
)

func identity(k uint32) uint64 { return uint64(k) }

// TestTableBounds runs the bound checks on a small cap, with keys hashed to
// themselves so consecutive keys share sets.
func TestTableBounds(t *testing.T) {
	for _, maxBits := range []int{memo.InitialBits, memo.InitialBits + 1, memo.InitialBits + 4} {
		memotest.CheckBounds(t, memo.New[uint32, uint32](maxBits, identity), maxBits,
			func(i int) uint32 { return uint32(i) }, func(i int) uint32 { return uint32(i) + 1 })
	}
}

// TestTableTwoWayLRU: two keys of one set both stay resident, a hit is
// promoted, a third key evicts the least recently used one, and
// overwriting a resident key in either way is not an install.
func TestTableTwoWayLRU(t *testing.T) {
	tab := memo.New[uint32, uint32](memo.InitialBits+1, func(uint32) uint64 { return 0 })
	tab.Put(1, 10)
	tab.Put(2, 20)
	if tab.Get(1) != 10 || tab.Get(2) != 20 {
		t.Fatal("two keys of one set are not both resident")
	}
	tab.Get(1) // 1 is now the most recent
	tab.Put(3, 30)
	if tab.Get(1) != 10 || tab.Get(3) != 30 || tab.Get(2) != 0 {
		t.Fatalf("after a third key: 1→%d 2→%d 3→%d, want 10, evicted, 30", tab.Get(1), tab.Get(2), tab.Get(3))
	}
	tab.Put(1, 11) // an overwrite, not an install
	if tab.Get(1) != 11 || tab.Get(3) != 30 {
		t.Fatal("overwriting a resident key disturbed its set")
	}
	for i := uint32(0); i < 1<<memo.InitialBits; i++ {
		tab.Put(1+i%2*2, i+1) // 1 and 3 alternate, each found in the second way
	}
	if got := tab.Slots(); got != 1<<memo.InitialBits {
		t.Fatalf("overwrites of resident keys grew the table to %d slots", got)
	}
}

// FuzzSpanMemo runs random install/lookup sequences against a map model:
// a hit must return the latest value installed for its key, a key just
// installed must hit, and the slot count must stay a power of two within
// [2^InitialBits, cap].
func FuzzSpanMemo(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 1, 1, 1, 1})
	f.Add(uint8(1), []byte{0, 0, 7, 1, 0, 7, 0, 1, 7})
	f.Add(uint8(2), make([]byte, 3*600))
	f.Fuzz(func(t *testing.T, capStep uint8, ops []byte) {
		maxBits := memo.InitialBits + int(capStep%3)
		// Folding keys into few hash values forces set conflicts.
		tab := memo.New[uint16, uint32](maxBits, func(k uint16) uint64 { return uint64(k % 509) })
		model := map[uint16]uint32{}
		for i := 0; i+2 < len(ops); i += 3 {
			k := uint16(ops[i+1])<<8 | uint16(ops[i+2])
			if ops[i]&1 == 0 {
				v := uint32(i) + 1
				tab.Put(k, v)
				model[k] = v
				if got := tab.Get(k); got != v {
					t.Fatalf("op %d: key %d just installed with %d reads %d", i/3, k, v, got)
				}
			} else if got := tab.Get(k); got != 0 && got != model[k] {
				t.Fatalf("op %d: key %d reads %d, latest install %d", i/3, k, got, model[k])
			}
			if n := tab.Slots(); n&(n-1) != 0 || n < 1<<memo.InitialBits || n > 1<<maxBits {
				t.Fatalf("op %d: %d slots, want a power of two in [%d, %d]", i/3, n, 1<<memo.InitialBits, 1<<maxBits)
			}
		}
	})
}
