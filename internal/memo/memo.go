// Package memo provides the bounded memo table behind the simulator's
// per-node caches: the controller's receive-span and transmit-plan front
// caches and the defense's passive-scan cache. Each is a pure memo — a miss
// only recomputes — so the table may evict freely; what it must not do is
// cost memory the traffic does not use. A table therefore starts at
// 2^InitialBits slots and doubles with its working set up to a fixed cap.
package memo

// InitialBits sizes a new table: 2^InitialBits slots, 128 two-way sets.
const InitialBits = 8

// Table is a two-way set-associative map from K to V over 2^k slots,
// InitialBits ≤ k ≤ the cap given to New. A key's set is picked by the top
// bits of its mixed hash; within a set, a hit is promoted to the first way
// and an install demotes the first way's entry to the second, evicting
// whatever the second way held — an LRU of two, so a pair of keys sharing a
// set does not thrash.
//
// The table doubles once the installs since its last resize reach half its
// slots, rehashing every live entry: doubling splits each set in two by one
// more hash bit, so both ways of an old set land without eviction and no
// hit is lost to growth. Once at its cap it stays there.
//
// The zero V marks an empty slot and must never be stored; every table in
// the simulator holds a pointer or a nonzero length.
type Table[K, V comparable] struct {
	slots    []entry[K, V]
	hash     func(K) uint64
	shift    uint8 // 64 − log2(len(slots)): the mixed hash's top bits index
	maxSlots int
	installs int // installs since the last resize
}

type entry[K, V comparable] struct {
	key K
	val V
}

// New returns an empty table of 2^InitialBits slots that grows to at most
// 2^maxBits (maxBits ≥ InitialBits). hash maps a key to 64 bits; the table
// mixes them, so the key's fields may simply be combined.
func New[K, V comparable](maxBits int, hash func(K) uint64) *Table[K, V] {
	return &Table[K, V]{
		slots:    make([]entry[K, V], 1<<InitialBits),
		hash:     hash,
		shift:    64 - InitialBits,
		maxSlots: 1 << maxBits,
	}
}

// Slots returns the current slot count, a power of two; 0 for a nil table,
// so owners that create their table lazily can report it unconditionally.
func (t *Table[K, V]) Slots() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}

// set returns the index of the first way of k's set.
func (t *Table[K, V]) set(k K) int {
	h := t.hash(k)
	h ^= h >> 32
	h *= 0x9E3779B97F4A7C15
	return int(h>>t.shift) &^ 1
}

// Get returns the value stored for k, promoting it to the first way of its
// set, or the zero V when k is not in the table.
func (t *Table[K, V]) Get(k K) V {
	var zero V
	i := t.set(k)
	s := t.slots[i : i+2 : i+2]
	if s[0].key == k && s[0].val != zero {
		return s[0].val
	}
	if s[1].key == k && s[1].val != zero {
		s[0], s[1] = s[1], s[0]
		return s[0].val
	}
	return zero
}

// Put stores v for k in the first way of its set. A key already in the set
// is overwritten in place; a new key demotes the incumbent and counts as
// an install toward the next doubling.
func (t *Table[K, V]) Put(k K, v V) {
	var zero V
	i := t.set(k)
	s := t.slots[i : i+2 : i+2]
	switch {
	case s[0].key == k && s[0].val != zero:
	case s[1].key == k && s[1].val != zero:
		s[1] = s[0]
	default:
		s[1] = s[0]
		t.installs++
	}
	s[0] = entry[K, V]{key: k, val: v}
	if t.installs >= len(t.slots)/2 && len(t.slots) < t.maxSlots {
		t.grow()
	}
}

// grow doubles the table. Each old set's entries go to the two new sets its
// one extra hash bit selects, second way first, so a set's recency order
// survives.
func (t *Table[K, V]) grow() {
	var zero V
	old := t.slots
	t.slots = make([]entry[K, V], 2*len(old))
	t.shift--
	t.installs = 0
	for i := 0; i < len(old); i += 2 {
		for _, e := range [2]entry[K, V]{old[i+1], old[i]} {
			if e.val == zero {
				continue
			}
			j := t.set(e.key)
			t.slots[j+1] = t.slots[j]
			t.slots[j] = e
		}
	}
}
