package core

import (
	"bytes"
	"sync"
	"sync/atomic"
	"unsafe"

	"michican/internal/can"
	"michican/internal/controller"
)

// spliceIndexPageBits sizes a summary table page: 64 plan ids, both
// SelfTransmitting answers each, 1 KiB of pointers.
const spliceIndexPageBits = 6

// spliceIndexMax bounds the PlanIDs a table addresses, matching the largest
// plan source (2^17 plans), so a table has at most 2^11 pages in 32
// directories; a window numbered past it compiles unpublished.
const spliceIndexMax = 1 << 17

// Slab chunks grow from slabFirst entries by doubling up to slabMax, so a
// table that compiles a handful of windows holds a small chunk and one that
// compiles thousands pays one allocation per slabMax of them.
const (
	slabFirst = 4
	slabMax   = 256
)

// spliceEntry is one window's compiled summary for one SelfTransmitting
// answer, immutable once published. span is the first level of the
// resolved span it was compiled for: offerers on separate plan sources
// number their windows independently (each counts from 0), so a same-id
// window with another span recompiles instead of inheriting the entry. ok
// is false for a window known to be unsummarizable, so repeat offers skip
// the walk.
type spliceEntry struct {
	span *can.Level
	ok   bool
	sum  spliceSummary
}

// splicePage holds the entries of 64 consecutive PlanIDs, slot 2·id+self.
type splicePage [2 << spliceIndexPageBits]atomic.Pointer[spliceEntry]

// spliceDir holds 64 consecutive pages (4,096 PlanIDs); a table's 32
// directories cover the ids below spliceIndexMax.
type spliceDir [1 << spliceIndexPageBits]atomic.Pointer[splicePage]

// spliceTable holds compiled Algorithm-1 summaries by the offered window's
// PlanID, for every defense with one fingerprint: the FSM image and the
// two flags compileSplice reads. A summary depends on nothing else, so each
// is compiled once per table, however many defenses read it. Directories
// and pages are allocated as offers reach them; nothing is evicted. A
// lookup is lock-free (three atomic loads and a span check);
// compile-and-publish runs under mu, and a published entry is never
// written again — a reset publishes a fresh entry in its slot. Entries
// live in slab chunks.
type spliceTable struct {
	// The fingerprint; a private table (no plan source) has none.
	image        []byte
	ext, prevent bool

	dirs [spliceIndexMax >> (2 * spliceIndexPageBits)]atomic.Pointer[spliceDir]

	mu   sync.Mutex
	slab []spliceEntry // the open chunk; published entries point into it

	// compiles and declines count published summaries and published
	// unsummarizable verdicts; hits counts a defense's first read of an
	// entry some defense published before it; resets counts entries
	// replaced because a window with their id carried another span. bytes
	// approximates the resident size.
	compiles, declines, hits, resets, bytes atomic.Int64
}

// spliceSlot returns the table slot of PlanID id for the self answer.
func spliceSlot(id int, self bool) int {
	if self {
		return id<<1 | 1
	}
	return id << 1
}

// lookup returns the entry published at slot, or nil.
func (t *spliceTable) lookup(slot int) *spliceEntry {
	pg := slot >> (spliceIndexPageBits + 1)
	dir := t.dirs[pg>>spliceIndexPageBits].Load()
	if dir == nil {
		return nil
	}
	p := dir[pg&(1<<spliceIndexPageBits-1)].Load()
	if p == nil {
		return nil
	}
	return p[slot&(2<<spliceIndexPageBits-1)].Load()
}

// publish compiles w's summary for the self answer and publishes it at
// slot, replacing an entry of another span, unless an entry for w's span is
// there by then (a racing defense published it first), which is served
// instead and counts as a hit when first is set (d's first resolution of
// slot). The compile runs outside the lock: it reads only d's fingerprint
// and the window.
func (t *spliceTable) publish(d *Defense, w []can.Level, self bool, slot int, first bool) *spliceEntry {
	c := spliceEntry{span: &w[0]}
	c.ok = d.compileSplice(&c.sum, w, self)
	t.mu.Lock()
	defer t.mu.Unlock()
	cell := &t.pageLocked(slot >> (spliceIndexPageBits + 1))[slot&(2<<spliceIndexPageBits-1)]
	old := cell.Load()
	if old != nil && old.span == c.span {
		if first {
			t.hits.Add(1)
		}
		return old
	}
	if old != nil {
		t.resets.Add(1)
	}
	if c.ok {
		t.compiles.Add(1)
	} else {
		t.declines.Add(1)
	}
	e := t.keepLocked(&c)
	cell.Store(e)
	return e
}

// pageLocked returns page pg, allocating it and its directory on first
// sight. Called with mu held, so readers see each pointer stored once.
func (t *spliceTable) pageLocked(pg int) *splicePage {
	cell := &t.dirs[pg>>spliceIndexPageBits]
	dir := cell.Load()
	if dir == nil {
		dir = new(spliceDir)
		t.bytes.Add(int64(unsafe.Sizeof(*dir)))
		cell.Store(dir)
	}
	p := dir[pg&(1<<spliceIndexPageBits-1)].Load()
	if p == nil {
		p = new(splicePage)
		t.bytes.Add(int64(unsafe.Sizeof(*p)))
		dir[pg&(1<<spliceIndexPageBits-1)].Store(p)
	}
	return p
}

// keepLocked copies e into the slab and returns its address, stable for
// the table's lifetime: a full chunk is left to the entries pointing into
// it and a new one opens.
func (t *spliceTable) keepLocked(e *spliceEntry) *spliceEntry {
	if len(t.slab) == cap(t.slab) {
		t.slab = make([]spliceEntry, 0, min(max(2*cap(t.slab), slabFirst), slabMax))
		t.bytes.Add(int64(cap(t.slab)) * int64(unsafe.Sizeof(*e)))
	}
	t.slab = append(t.slab, *e)
	return &t.slab[len(t.slab)-1]
}

// slots returns the number of PlanIDs the table has pages for.
func (t *spliceTable) slots() int {
	n := 0
	for i := range t.dirs {
		if dir := t.dirs[i].Load(); dir != nil {
			for j := range dir {
				if dir[j].Load() != nil {
					n += 1 << spliceIndexPageBits
				}
			}
		}
	}
	return n
}

// SpliceTables is the set of splice-summary tables a plan source keeps for
// the defenses wired to it (Defense.SetPlanSource), one per defense
// fingerprint: attack kinds keep different IDs off the matrix, so one fleet
// holds several FSMs. The fingerprint is compared exactly, image byte for
// byte, never by hash.
type SpliceTables struct {
	mu   sync.Mutex
	tabs []*spliceTable
}

// SpliceTablesOf returns the splice-summary tables src carries, creating
// the empty set on first use.
func SpliceTablesOf(src *controller.PlanSource) *SpliceTables {
	return src.Side(func() any { return new(SpliceTables) }).(*SpliceTables)
}

// table returns the table of d's fingerprint, creating it on first sight.
func (ts *SpliceTables) table(d *Defense) *spliceTable {
	image := d.cfg.FSM.Marshal()
	ext, prevent := d.cfg.ExtendedAware, d.cfg.PreventionEnabled
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, t := range ts.tabs {
		if t.ext == ext && t.prevent == prevent && bytes.Equal(t.image, image) {
			return t
		}
	}
	t := &spliceTable{image: image, ext: ext, prevent: prevent}
	t.bytes.Store(int64(unsafe.Sizeof(*t)) + int64(cap(image)))
	ts.tabs = append(ts.tabs, t)
	return t
}

// SpliceTableStats is a point-in-time snapshot of a source's splice-summary
// tables, summed over fingerprints.
type SpliceTableStats struct {
	// Compiles counts summaries compiled and published; Declines counts
	// windows found unsummarizable, published as such so that no defense
	// walks them again.
	Compiles int64 `json:"compiles"`
	Declines int64 `json:"declines"`
	// Hits counts a defense's first read of an entry another defense
	// published: each defense counts one resolution per (window, self)
	// entry, so with N vehicles of one fingerprint the steady share of
	// hits approaches (N-1)/N.
	Hits int64 `json:"hits"`
	// Resets counts entries replaced because a window with their id
	// carried another span (offerers on separate plan sources); 0 when
	// every offerer on the bus draws from the source.
	Resets int64 `json:"resets"`
	// Fingerprints is the number of tables: distinct (FSM image,
	// ExtendedAware, PreventionEnabled) among the wired defenses.
	Fingerprints int `json:"fingerprints"`
	// ResidentBytes approximates the memory held: the tables, their
	// directories, pages and slab chunks, and the fingerprint images.
	ResidentBytes int64 `json:"resident_bytes"`
}

// Stats returns the tables' counters; a nil set reads all zero.
func (ts *SpliceTables) Stats() SpliceTableStats {
	var st SpliceTableStats
	if ts == nil {
		return st
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, t := range ts.tabs {
		st.Compiles += t.compiles.Load()
		st.Declines += t.declines.Load()
		st.Hits += t.hits.Load()
		st.Resets += t.resets.Load()
		st.ResidentBytes += t.bytes.Load()
	}
	st.Fingerprints = len(ts.tabs)
	return st
}
