package controller

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"michican/internal/bus"
	"michican/internal/can"
)

// planSourceFrame derives a distinct classical frame per index, cycling IDs
// and payload bytes the way a rolling-counter matrix does.
func planSourceFrame(i int) can.Frame {
	return can.Frame{
		ID:   can.ID(0x100 + i%16),
		Data: []byte{byte(i), byte(i >> 4), 0xA5},
	}
}

// TestPlanSourceSharesArrays pins the sharing contract: two controllers on
// one source resolve the same frame to the same immutable plan,
// bit-identical to a locally built plan, with the pre-resolved splice span
// shaped as the splice tier expects.
func TestPlanSourceSharesArrays(t *testing.T) {
	src := NewPlanSource()
	c1 := New(Config{Name: "c1"})
	c1.SetPlanSource(src)
	c2 := New(Config{Name: "c2"})
	c2.SetPlanSource(src)
	f := can.Frame{ID: 0x123, Data: []byte{1, 2, 3}}

	p1 := c1.planFor(f.Clone())
	p2 := c2.planFor(f.Clone())
	if p1 != p2 {
		t.Fatal("controllers on one source hold private copies of the plan")
	}
	if p1.id != 0 {
		t.Fatalf("first published plan has id %d, want 0", p1.id)
	}

	ref := newTxPlan(f.Clone())
	if !reflect.DeepEqual(p1.bits, ref.bits) || !reflect.DeepEqual(p1.isStuff, ref.isStuff) ||
		p1.arbEnd != ref.arbEnd || p1.ackIdx != ref.ackIdx {
		t.Fatal("shared plan differs from a locally built serialization")
	}
	if len(p1.resolved) != len(ref.bits)+IntermissionBits {
		t.Fatalf("resolved span is %d levels, want window+intermission = %d",
			len(p1.resolved), len(ref.bits)+IntermissionBits)
	}
	if p1.resolved[ref.ackIdx] != can.Dominant {
		t.Error("resolved span carries a recessive ACK slot")
	}
	for i := range p1.bits {
		if i != ref.ackIdx && p1.resolved[i] != p1.bits[i] {
			t.Fatalf("resolved level %d differs from the window", i)
		}
	}
	for i := len(ref.bits); i < len(p1.resolved); i++ {
		if p1.resolved[i] != can.Recessive {
			t.Fatalf("resolved intermission level %d is dominant", i)
		}
	}

	st := src.Stats()
	wantBytes := int64(basePlanSize(len(p1.bits)))
	if st.Hits != 1 || st.Misses != 1 || st.Plans != 1 || st.ResidentBytes != wantBytes {
		t.Fatalf("stats after one build and one hit: %+v (want 1/1/1/%d)", st, wantBytes)
	}
	if got := src.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}

	// A repeat resolve on the same controller is served by its front cache
	// and must not touch the source's counters.
	if c1.planFor(f.Clone()) != p1 {
		t.Fatal("repeat resolve rebuilt the plan instead of hitting the front cache")
	}
	if st2 := src.Stats(); st2 != st {
		t.Fatalf("front-cache hit reached the source: %+v vs %+v", st2, st)
	}
}

// TestPlanSourceDistinctKeys checks the content addressing covers every
// identity field: frames differing only in format flags or request length
// must not alias.
func TestPlanSourceDistinctKeys(t *testing.T) {
	src := NewPlanSource()
	c := New(Config{Name: "c"})
	c.SetPlanSource(src)
	frames := []can.Frame{
		{ID: 0x44, Data: []byte{9}},
		{ID: 0x44, Data: []byte{9}, Extended: true},
		{ID: 0x44, Remote: true, RequestLen: 1},
		{ID: 0x44, Remote: true, RequestLen: 2},
	}
	for _, f := range frames {
		c.planFor(f.Clone())
	}
	if st := src.Stats(); st.Plans != len(frames) || st.Misses != int64(len(frames)) {
		t.Fatalf("distinct frames collapsed: %+v, want %d plans", st, len(frames))
	}
}

// TestPlanSourceZeroValue covers the durable-store path: a zero-value source
// (nil map, e.g. decoded from a stored spec) must lazily initialize instead
// of panicking on first insert.
func TestPlanSourceZeroValue(t *testing.T) {
	var src PlanSource
	c := New(Config{Name: "c"})
	c.SetPlanSource(&src)
	if p := c.planFor(planSourceFrame(0)); p == nil || len(p.bits) == 0 {
		t.Fatal("zero-value source produced no plan")
	}
	if st := src.Stats(); st.Plans != 1 || st.Misses != 1 {
		t.Fatalf("zero-value source stats: %+v", st)
	}
}

// TestPlanSourceNilSafe: observability paths read stats off a possibly-nil
// source (MeasureFleetPlanCache's private arm), which must be a clean zero.
func TestPlanSourceNilSafe(t *testing.T) {
	var src *PlanSource
	if st := src.Stats(); st != (PlanSourceStats{}) {
		t.Fatalf("nil source stats = %+v, want zero", st)
	}
	if r := src.HitRate(); r != 0 {
		t.Fatalf("nil source hit rate = %v, want 0", r)
	}
}

// TestPlanSourceConcurrentResolve races many controllers over one source the
// way fleet workers do. Whatever the interleaving, every worker must end up
// referencing the same shared arrays per frame (first build wins, losers
// adopt), the table must hold exactly one plan per distinct frame, and the
// counters must account for every resolve.
func TestPlanSourceConcurrentResolve(t *testing.T) {
	const workers, frames = 8, 64
	src := NewPlanSource()
	plans := make([][]*txPlan, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		plans[w] = make([]*txPlan, frames)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := New(Config{Name: fmt.Sprintf("c%d", w)})
			c.SetPlanSource(src)
			for i := 0; i < frames; i++ {
				plans[w][i] = c.planFor(planSourceFrame(i))
			}
		}(w)
	}
	wg.Wait()

	for i := 0; i < frames; i++ {
		for w := 1; w < workers; w++ {
			if &plans[w][i].bits[0] != &plans[0][i].bits[0] {
				t.Fatalf("worker %d holds a private copy of frame %d's plan", w, i)
			}
		}
	}
	st := src.Stats()
	if st.Plans != frames {
		t.Fatalf("table holds %d plans, want %d", st.Plans, frames)
	}
	if st.Hits+st.Misses != workers*frames {
		t.Fatalf("counters account for %d resolves, want %d", st.Hits+st.Misses, workers*frames)
	}
	// Only the published build of each frame counts a miss, however the
	// publication races went.
	if st.Misses != frames {
		t.Fatalf("%d misses for %d distinct frames: %+v", st.Misses, frames, st)
	}
}

// TestPlanSourceRacingBuildsCountOneMiss resolves one frame from 16
// goroutines released together on a fresh source: whichever builds lose the
// publication race adopt the winner's plan and count hits, so the split is
// exactly one miss and 15 hits on every run.
func TestPlanSourceRacingBuildsCountOneMiss(t *testing.T) {
	const workers = 16
	src := NewPlanSource()
	f := planSourceFrame(0)
	key := keyOf(&f)
	plans := make([]*txPlan, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			plans[w] = src.plan(key, &f, true)
		}(w)
	}
	close(start)
	wg.Wait()
	for w := 1; w < workers; w++ {
		if plans[w] != plans[0] {
			t.Fatalf("worker %d resolved a different plan", w)
		}
	}
	if st := src.Stats(); st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("hits %d, misses %d; want %d and 1", st.Hits, st.Misses, workers-1)
	}
}

// fillTo publishes placeholder plans into src until it holds n, and
// placeholder rolling tables until it holds n/256, standing in for a long
// run's working set so the caps can be tested at their real values.
func fillTo(src *PlanSource, n int) {
	src.mu.Lock()
	defer src.mu.Unlock()
	if src.plans == nil {
		src.plans = make(map[planKey]*txPlan, n)
	}
	filler := &txPlan{}
	for i := 0; len(src.plans) < n; i++ {
		k := planKey{id: can.ID(0x7FF), dataLen: 8}
		binary.LittleEndian.PutUint64(k.data[:], uint64(i)|1<<63)
		src.plans[k] = filler
	}
	if src.rolls == nil {
		src.rolls = make(map[rollKey]*Rolling, n>>8)
	}
	table := &Rolling{}
	for i := 0; len(src.rolls) < n>>8; i++ {
		src.rolls[rollKey{id: can.ID(i), dlc: -1}] = table
	}
}

// deliverThrough sends f from a controller on the given source to a
// receiver over a default (splicing) bus and reports the frames received
// and the bits the splice rung carried.
func deliverThrough(t *testing.T, tx *Controller, f can.Frame) ([]can.Frame, int64) {
	t.Helper()
	b := bus.New(bus.Rate500k)
	var rx recorder
	b.Attach(tx)
	b.Attach(newTestController("rx", &rx))
	if err := tx.Enqueue(f); err != nil {
		t.Fatal(err)
	}
	b.Run(400)
	return rx.frames, b.SpliceForwardedBits()
}

// TestPlanSourceAtCap fills a shared source to planSourceMax plans and
// rolling tables: past the cap it stops publishing (the tables and the
// byte count stay put; a plan is unpublished, id -1, so its window is
// offered without a PlanID, and a rolling table keeps no plan) yet still
// serves correct plans and tables, which the controller transmits, on the
// splice rung, like any other.
func TestPlanSourceAtCap(t *testing.T) {
	src := NewPlanSource()
	fillTo(src, planSourceMax)
	before := src.Stats()
	c := New(Config{Name: "tx", AutoRecover: true, Plans: src})
	f := can.Frame{ID: 0x123, Data: []byte{0xDE, 0xAD}}
	p := c.planFor(f)
	if p.id != -1 {
		t.Fatalf("plan past the cap published with id %d", p.id)
	}
	if !samePlan(p, newTxPlan(f)) {
		t.Fatal("plan past the cap differs from a fresh compilation")
	}
	if r := c.Rolling(0x124, 2); r == nil || src.rolls[rollKey{0x124, 2}] != nil {
		t.Fatal("rolling table past the cap: want an unpublished, usable table")
	} else if pl := r.Instance(7, true); !pl.Valid() || pl.plan.id != -1 || r.plans[7].Load() != nil {
		t.Fatal("rolling instance past the cap was published")
	}
	got, splice := deliverThrough(t, c, f)
	if len(got) != 1 || !got[0].Equal(&f) {
		t.Fatalf("receiver got %v, want [%v]", got, f)
	}
	if splice == 0 {
		t.Error("the unpublished plan never spliced")
	}
	after := src.Stats()
	if after.Plans != planSourceMax || after.ResidentBytes != before.ResidentBytes {
		t.Fatalf("source grew past its cap: %+v → %+v", before, after)
	}
}

// TestPrivatePlanSourceAtCap is the same check for a standalone
// controller's own source at planCacheMax, through the front cache that
// serves the plans it no longer publishes.
func TestPrivatePlanSourceAtCap(t *testing.T) {
	c := New(Config{Name: "tx", AutoRecover: true})
	own := c.source()
	if own == c.PlanSource() || own.limit() != planCacheMax {
		t.Fatalf("standalone controller compiles through %p (limit %d), want a private source at %d",
			own, own.limit(), planCacheMax)
	}
	fillTo(own, planCacheMax)
	f := can.Frame{ID: 0x321, Data: []byte{1, 2, 3}}
	p := c.planFor(f)
	if p.id != -1 || len(own.plans) != planCacheMax {
		t.Fatalf("private source published past its cap: id %d, %d plans", p.id, len(own.plans))
	}
	if c.planFor(f) != p {
		t.Fatal("front cache does not serve the unpublished plan")
	}
	if !samePlan(p, newTxPlan(f)) {
		t.Fatal("plan past the cap differs from a fresh compilation")
	}
	got, _ := deliverThrough(t, c, f)
	if len(got) != 1 || !got[0].Equal(&f) {
		t.Fatalf("receiver got %v, want [%v]", got, f)
	}
}

// TestRollingConcurrentResolve races many controllers over one source's
// rolling table, the way fleet workers resolve one matrix: whatever the
// interleaving, all get one table and, per instance, one plan — the one
// the content-addressed path publishes for that frame — and the counters
// account for each worker's first resolution of each instance.
func TestRollingConcurrentResolve(t *testing.T) {
	const workers = 8
	src := NewPlanSource()
	tables := make([]*Rolling, workers)
	plans := make([][256]*txPlan, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := New(Config{Name: fmt.Sprintf("c%d", w), Plans: src})
			tables[w] = c.Rolling(0x0CD, 8)
			for i := 0; i < 256; i++ {
				seq := byte(i + 37*w) // staggered starts, overlapping races
				plans[w][seq] = tables[w].Instance(seq, true).plan
				if again := tables[w].Instance(seq, false); again.plan != plans[w][seq] {
					t.Errorf("worker %d: instance %d re-resolved to another plan", w, seq)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if tables[w] != tables[0] {
			t.Fatalf("worker %d resolved its own rolling table", w)
		}
		if plans[w] != plans[0] {
			t.Fatalf("worker %d holds plans the others do not", w)
		}
	}
	c := New(Config{Name: "enqueue-path", Plans: src})
	for seq := 0; seq < 256; seq++ {
		f := can.Frame{ID: 0x0CD, Data: []byte{byte(seq), 0, 0, 0, 0, 0, 0, 0}}
		if c.planFor(f) != plans[0][seq] {
			t.Fatalf("instance %d: rolling and content-addressed plans differ", seq)
		}
	}
	st := src.Stats()
	if st.Plans != 256 {
		t.Fatalf("source holds %d plans, want 256", st.Plans)
	}
	if st.Hits+st.Misses != (workers+1)*256 || st.Misses < 256 || st.Hits < workers*256-st.Misses {
		t.Fatalf("counters %+v do not account for %d first resolutions", st, (workers+1)*256)
	}
	if err := src.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanSourceStatsCountTables pins what the statistics mean: a rolling
// instance another controller compiled is a hit, a repeat resolution is
// not counted again, and ResidentBytes covers each plan's one allocation
// and the rolling table with its payloads.
func TestPlanSourceStatsCountTables(t *testing.T) {
	src := NewPlanSource()
	r1 := New(Config{Name: "a", Plans: src}).Rolling(0x10, 3)
	r2 := New(Config{Name: "b", Plans: src}).Rolling(0x10, 3)
	p := r1.Instance(5, true)
	r1.Instance(5, false)
	r2.Instance(5, true)
	if st := src.Stats(); st.Hits != 1 || st.Misses != 1 || st.Plans != 1 {
		t.Fatalf("stats %+v, want 1 hit, 1 miss, 1 plan", st)
	}
	if got := p.Frame(); got.ID != 0x10 || string(got.Data) != "\x05\x00\x00" {
		t.Fatalf("instance 5 frame = %v", got)
	}
	want := int64(unsafe.Sizeof(*r1)) + 256*3 + int64(basePlanSize(len(p.plan.bits)))
	if st := src.Stats(); st.ResidentBytes != want {
		t.Fatalf("ResidentBytes = %d, want %d (table, payloads, the plan's one allocation)", st.ResidentBytes, want)
	}
}
