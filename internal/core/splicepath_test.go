package core

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/restbus"
	"michican/internal/trace"
)

// spliceIDs is the IVN of the splice tests: the defended 0x173 and the
// benign IDs the other controllers send.
var spliceIDs = []can.ID{0x0A0, 0x173, 0x2B4, 0x300}

// defendedBus builds a bus at the given top rung with a defended ECU for
// 0x173 and a wire recorder.
func defendedBus(t *testing.T, top bus.Rung) (*bus.Bus, *controller.Controller, *Defense, *trace.Recorder) {
	t.Helper()
	b := bus.New(bus.Rate500k)
	b.SetLadder(top)
	ctl := controller.New(controller.Config{Name: "defender", AutoRecover: true})
	d := buildDefense(t, spliceIDs, 1, Config{Name: "michican"})
	b.Attach(NewECU(ctl, d))
	rec := trace.NewRecorder()
	b.AttachTap(rec)
	return b, ctl, d, rec
}

// spliceOutcome is what exact stepping and splicing must agree on.
type spliceOutcome struct {
	Bits        []can.Level
	Stats       Stats
	Cycles      int64
	Invocations int64
	TxSuccess   []int
	RxSuccess   []int
}

// checkSameOutcome fails the test unless the splice run matches exact
// stepping.
func checkSameOutcome(t *testing.T, exact, spliced spliceOutcome) {
	t.Helper()
	if !reflect.DeepEqual(exact.Bits, spliced.Bits) {
		i := 0
		for i < len(exact.Bits) && i < len(spliced.Bits) && exact.Bits[i] == spliced.Bits[i] {
			i++
		}
		t.Fatalf("wire diverges at bit %d (lengths %d, %d)", i, len(exact.Bits), len(spliced.Bits))
	}
	exact.Bits, spliced.Bits = nil, nil
	if !reflect.DeepEqual(exact, spliced) {
		t.Fatalf("splice run diverged from exact stepping:\nexact  %+v\nsplice %+v", exact, spliced)
	}
}

func outcomeOf(rec *trace.Recorder, d *Defense, ctls ...*controller.Controller) spliceOutcome {
	o := spliceOutcome{Bits: rec.Bits(), Stats: d.Stats(), Cycles: d.Meter().TotalCycles(), Invocations: d.Meter().Invocations()}
	for _, c := range ctls {
		st := c.Stats()
		o.TxSuccess = append(o.TxSuccess, st.TxSuccess)
		o.RxSuccess = append(o.RxSuccess, st.RxSuccess)
	}
	return o
}

// TestWarmSpliceAllocatesNothing: once the defense has compiled a published
// window's summary, splicing that window again — offered by the defended
// ECU, queried and applied by the restbus — allocates nothing.
func TestWarmSpliceAllocatesNothing(t *testing.T) {
	b, ctl, _, _ := defendedBus(t, bus.RungSplice)
	m := &restbus.Matrix{Messages: []restbus.Message{{ID: 0x300, DLC: 4, Period: time.Hour}}}
	b.Attach(restbus.NewReplayer("restbus", m, bus.Rate500k, nil))
	frame := ctl.Rolling(0x173, 2).Instance(7, true)
	send := func() {
		if err := ctl.EnqueuePlanned(frame); err != nil {
			t.Fatal(err)
		}
		b.Run(200)
	}
	send() // the restbus's first deadline falls here
	send() // compiles the defense's summary
	before := b.SpliceForwardedBits()
	const rounds = 100
	if got := testing.AllocsPerRun(rounds, send); got != 0 {
		t.Errorf("a warm splice allocates %v times, want 0", got)
	}
	if spliced := b.SpliceForwardedBits() - before; spliced == 0 || spliced%(rounds+1) != 0 {
		t.Fatalf("splice rung carried %d bits over %d sends, want one window each", spliced, rounds+1)
	}
}

// TestSpliceIndexSameIDOtherSource: two controllers on private plan sources
// both number their first plan 0, as does the defended ECU's own, so three
// different windows share PlanID 0. The defense recompiles on every change
// of span instead of applying another window's summary, and the run stays
// bit-identical to exact stepping.
func TestSpliceIndexSameIDOtherSource(t *testing.T) {
	run := func(top bus.Rung) (spliceOutcome, *Defense, int64) {
		b, ctl, d, rec := defendedBus(t, top)
		a := controller.New(controller.Config{Name: "a", AutoRecover: true})
		c := controller.New(controller.Config{Name: "b", AutoRecover: true})
		b.Attach(a)
		b.Attach(c)
		frames := []struct {
			ctl *controller.Controller
			f   can.Frame
		}{
			{a, can.Frame{ID: 0x0A0, Data: []byte{0xFF}}},
			{c, can.Frame{ID: 0x2B4, Data: []byte{1, 2, 3, 4, 5}}},
			{ctl, can.Frame{ID: 0x173, Data: []byte{0x11, 0x22}}},
		}
		for i := 0; i < 30; i++ {
			fr := frames[i%len(frames)]
			if err := fr.ctl.Enqueue(fr.f); err != nil {
				t.Fatal(err)
			}
			b.Run(300)
		}
		return outcomeOf(rec, d, ctl, a, c), d, b.SpliceForwardedBits()
	}
	exact, _, _ := run(bus.RungExact)
	spliced, d, bits := run(bus.RungSplice)
	if bits == 0 {
		t.Fatal("splice rung never engaged")
	}
	checkSameOutcome(t, exact, spliced)
	if len(d.splices.pages) != 1 {
		t.Fatalf("index holds %d pages, want the one page of PlanID 0", len(d.splices.pages))
	}

	// The same at the index itself: alternating spans under one id each get
	// their own summary, for both SelfTransmitting answers.
	d = buildDefense(t, spliceIDs, 1, Config{Name: "michican"})
	var wins []*bus.SpliceWindow
	for _, fr := range []can.Frame{{ID: 0x0A0, Data: []byte{0xFF}}, {ID: 0x2B4, Data: []byte{1, 2, 3, 4, 5}}} {
		w := offeredWindow(t, fr)
		w.PlanID = 0
		wins = append(wins, w)
	}
	for i := 0; i < 6; i++ {
		w, self := wins[i%2], i%4 < 2
		var want spliceSummary
		if !d.compileSplice(&want, w.Resolved, self) {
			t.Fatalf("offer %d: window not summarizable", i)
		}
		if got := d.spliceSummaryFor(w, self); !reflect.DeepEqual(*got, want) {
			t.Fatalf("offer %d (span of frame %d, self %v): summary %+v, want %+v", i, i%2, self, got, want)
		}
	}
}

// TestSpliceSummariesComeFromSlabs: compiled summaries are carved from the
// defense's slab chunks, not allocated one by one. After a first compile
// has built the index's page, 1,000 more distinct windows cost the chunks
// that hold them (8…256 entries, eight allocations), and each keeps its
// own summary.
func TestSpliceSummariesComeFromSlabs(t *testing.T) {
	d := buildDefense(t, spliceIDs, 1, Config{Name: "michican"})
	wins := make([]*bus.SpliceWindow, 1001)
	for i := range wins {
		w := offeredWindow(t, can.Frame{ID: 0x0A0, Data: []byte{byte(i), byte(i >> 8)}})
		w.PlanID = 0 // one entry, so only the summaries can allocate
		wins[i] = w
	}
	if d.spliceSummaryFor(wins[0], true) == nil {
		t.Fatal("window 0 not summarizable")
	}
	sums := make([]*spliceSummary, 0, len(wins))
	// Mallocs is process-wide, and the runtime allocates inside the window
	// when a GC cycle starts or when restarting the world after the
	// baseline read starts an OS thread for an idle P (new m and g, five
	// allocations). The collector is paused and the process held to one P
	// while the window is measured, so neither can happen.
	n := func() uint64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, w := range wins[1:] {
			sums = append(sums, d.spliceSummaryFor(w, true))
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}()
	if n > 10 {
		t.Fatalf("compiling %d windows made %d allocations, want at most 10", len(sums), n)
	}
	if got := d.SpliceResets(); got != int64(len(sums)) {
		t.Fatalf("%d span resets, want %d", got, len(sums))
	}
	for i, s := range sums {
		var want spliceSummary
		if s == nil || !d.compileSplice(&want, wins[i+1].Resolved, true) || *s != want {
			t.Fatalf("window %d: summary %+v, want %+v", i+1, s, want)
		}
	}
}

// offeredWindow returns the window a lone controller offers for f.
func offeredWindow(t *testing.T, f can.Frame) *bus.SpliceWindow {
	t.Helper()
	c := controller.New(controller.Config{Name: "tx"})
	if err := c.Enqueue(f); err != nil {
		t.Fatal(err)
	}
	c.Observe(0, can.Recessive) // idle bus: assert SOF next bit
	w := c.SpliceOffer(1)
	if w == nil {
		t.Fatalf("no window offered for %v", f)
	}
	cp := *w
	return &cp
}

// TestSpliceIndexPastSourceCap: a controller whose private plan source is
// full serves its next frame unpublished (PlanID -1). That window splices
// bit-identically to exact stepping, compiled uncached, and the defense's
// index stays the size the published windows gave it.
func TestSpliceIndexPastSourceCap(t *testing.T) {
	const planCacheMax = 1 << 14 // a private source's cap: 64 rolling tables × 256
	run := func(top bus.Rung) (spliceOutcome, int64, int, int) {
		b, ctl, d, rec := defendedBus(t, top)
		tx := controller.New(controller.Config{Name: "tx", AutoRecover: true})
		var published controller.Planned
		for k := 0; k < planCacheMax/256; k++ {
			r := tx.Rolling(can.ID(0x400+k), 8)
			for seq := 0; seq < 256; seq++ {
				published = r.Instance(byte(seq), true)
			}
		}
		b.Attach(tx)
		if err := tx.EnqueuePlanned(published); err != nil {
			t.Fatal(err)
		}
		b.Run(300)
		slots := d.MemoSlots()
		before := b.SpliceForwardedBits()
		for i := 0; i < 5; i++ {
			if err := tx.Enqueue(can.Frame{ID: 0x300, Data: []byte{0xDE, 0xAD, 0xBE, 0xEF}}); err != nil {
				t.Fatal(err)
			}
			b.Run(300)
		}
		after := d.MemoSlots()
		return outcomeOf(rec, d, ctl, tx), b.SpliceForwardedBits() - before, slots, after
	}
	exact, _, _, _ := run(bus.RungExact)
	spliced, bits, before, after := run(bus.RungSplice)
	if bits == 0 {
		t.Fatal("the unpublished window never spliced")
	}
	checkSameOutcome(t, exact, spliced)
	if before == 0 || after != before {
		t.Fatalf("index held %d entries after the published window, %d after the unpublished ones; want equal and non-zero", before, after)
	}
}

// TestSpliceIndexAtCap checks the index at both ends of its range: the
// first and the last id it addresses each get one stable entry, pages are
// allocated only where offers land, a window of another span with the
// same id resets the entry instead of inheriting it, and unnumbered
// windows and ids past the bound get none.
func TestSpliceIndexAtCap(t *testing.T) {
	var x spliceIndex
	span := func() []can.Level { return make([]can.Level, 1) }
	first := &bus.SpliceWindow{Resolved: span(), PlanID: 0}
	last := &bus.SpliceWindow{Resolved: span(), PlanID: spliceIndexMax - 1}
	ef, el := x.entry(first), x.entry(last)
	if ef == nil || el == nil || ef == el {
		t.Fatal("windows at the ends of the id range got no distinct entries")
	}
	ef.sums[0] = declinedSplice
	if x.entry(first) != ef || x.entry(last) != el || ef.sums[0] != declinedSplice {
		t.Fatal("entry not stable across offers")
	}
	if len(x.pages) != spliceIndexMax>>spliceIndexPageBits || x.slots() != 2<<spliceIndexPageBits {
		t.Fatalf("index holds %d pages, %d entries; want %d pages, 2 allocated",
			len(x.pages), x.slots(), spliceIndexMax>>spliceIndexPageBits)
	}
	other := &bus.SpliceWindow{Resolved: span(), PlanID: 0}
	if e := x.entry(other); e != ef || e.sums[0] != nil || e.span != &other.Resolved[0] {
		t.Fatal("a window of another span inherited the entry of the same id")
	}
	for _, id := range []int32{-1, spliceIndexMax} {
		if x.entry(&bus.SpliceWindow{Resolved: span(), PlanID: id}) != nil {
			t.Fatalf("window with PlanID %d got an entry", id)
		}
	}
	if x.slots() != 2<<spliceIndexPageBits {
		t.Fatalf("index grew to %d entries", x.slots())
	}
}
