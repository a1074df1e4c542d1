package telemetry

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSubscribeReceivesEvents(t *testing.T) {
	h := NewHub()
	h.RetainEvents(false)
	var got []Event
	cancel := h.Subscribe(func(ev Event) { got = append(got, ev) })
	p := h.Probe("n")
	p.Emit(10, EvDetect, 5, 0)
	p.Emit(20, EvTEC, 8, 0)
	if len(got) != 2 || got[0].Kind != EvDetect || got[0].A != 5 || got[1].Time != 20 {
		t.Fatalf("subscriber saw %+v", got)
	}
	cancel()
	p.Emit(30, EvBusOff, 0, 0)
	if len(got) != 2 {
		t.Fatalf("event delivered after unsubscribe: %+v", got)
	}
	cancel() // idempotent
}

func TestSubscribeMultiple(t *testing.T) {
	h := NewHub()
	h.RetainEvents(false)
	var a, b int
	cancelA := h.Subscribe(func(Event) { a++ })
	cancelB := h.Subscribe(func(Event) { b++ })
	p := h.Probe("n")
	p.Emit(1, EvDetect, 5, 0)
	cancelA()
	p.Emit(2, EvDetect, 5, 0)
	cancelB()
	p.Emit(3, EvDetect, 5, 0)
	if a != 1 || b != 2 {
		t.Fatalf("a=%d b=%d, want 1 and 2", a, b)
	}
}

// TestConcurrentEmitWithSubscriber hammers one hub from concurrent emitters
// while subscribers come and go — the shape `go test -race` must hold for the
// live observability server, whose forensics engine subscribes mid-run.
func TestConcurrentEmitWithSubscriber(t *testing.T) {
	h := NewHub()
	h.RetainEvents(false)
	var delivered atomic.Int64
	cancel := h.Subscribe(func(ev Event) { delivered.Add(1) })

	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := h.Probe("defender")
			for i := 0; i < perG; i++ {
				p.Emit(int64(i), EvDetect, int64(i%11+1), 0)
			}
		}(g)
	}
	// Subscriber churn while emission is in flight: transient subscribers must
	// neither lose the long-lived subscriber's events nor race the emitters.
	for i := 0; i < 50; i++ {
		h.Subscribe(func(Event) {})()
	}
	wg.Wait()
	cancel()
	if got := delivered.Load(); got != goroutines*perG {
		t.Fatalf("long-lived subscriber saw %d events, want %d", got, goroutines*perG)
	}
	if got := h.Registry().Counter("michican_detections_total", "node", "defender").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

// TestSequencerCanonicalOrder feeds the hub node-interleaved events and
// checks the ordered subscriber receives them in canonical (Time, Node,
// arrival) order.
func TestSequencerCanonicalOrder(t *testing.T) {
	h := newOrderedHub(2)
	// Node 2's span arrives whole before node 1's — the batch fast-path
	// delivery pattern.
	h.emit(Event{Time: 10, Node: 2, Kind: EvTxStart, A: 7})
	h.emit(Event{Time: 12, Node: 2, Kind: EvError})
	h.emit(Event{Time: 10, Node: 1, Kind: EvTxStart, A: 7})
	h.emit(Event{Time: 11, Node: 1, Kind: EvDetect, A: 9})
	if len(h.batches) != 0 {
		t.Fatalf("released %d batches before the drain bound or a Flush", len(h.batches))
	}
	h.Flush()
	want := []struct {
		t    int64
		node NodeID
	}{{10, 1}, {10, 2}, {11, 1}, {12, 2}}
	if len(h.batches) != 1 || len(h.batches[0]) != len(want) {
		t.Fatalf("released %v, want one batch of %d events", h.batches, len(want))
	}
	for i, w := range want {
		if got := h.batches[0][i]; got.Time != w.t || got.Node != w.node {
			t.Fatalf("event %d = t%d node%d, want t%d node%d", i, got.Time, got.Node, w.t, w.node)
		}
	}
}

// TestOrderedSubscriberMayEmitAlerts: watch emits EvAlert from inside
// forensics' incident callback, so from inside a batch delivery. The alert
// must neither deadlock on the sequencing lock nor be batched; raw
// subscribers still see it.
func TestOrderedSubscriberMayEmitAlerts(t *testing.T) {
	h := NewHub()
	h.RetainEvents(false)
	p, watch := h.Probe("n"), h.Probe("watch")
	var batched, rawAlerts int
	h.SubscribeOrdered(func(b []Event) {
		for _, ev := range b {
			if ev.Kind == EvAlert {
				t.Errorf("alert at t=%d delivered in a batch", ev.Time)
			}
			batched++
			watch.Emit(ev.Time, EvAlert, 0, 1)
		}
	})
	h.Subscribe(func(ev Event) {
		if ev.Kind == EvAlert {
			rawAlerts++
		}
	})
	const n = 3000
	for i := int64(0); i < n; i++ {
		p.Emit(10*i, EvTxStart, 0x100, 0)
	}
	h.Flush()
	if batched != n || rawAlerts != n {
		t.Fatalf("batched %d events and fanned out %d alerts, want %d each", batched, rawAlerts, n)
	}
}

// TestOrderedUnsubscribeMidRun: a consumer that leaves mid-run receives
// nothing further, the one that stays misses nothing, and once the last
// ordered consumer leaves the hub drops its buffer and sequences nothing.
func TestOrderedUnsubscribeMidRun(t *testing.T) {
	h := newOrderedHub(1)
	var early []Event
	cancelEarly := h.SubscribeOrdered(func(b []Event) { early = append(early, b...) })
	p := h.probes[0]
	for i := int64(0); i < 5000; i++ {
		p.Emit(10*i, EvDetect, i, 0)
		if i == 2500 {
			cancelEarly()
			cancelEarly() // idempotent
		}
	}
	seen := len(early)
	if seen == 0 || seen > 2500 {
		t.Fatalf("departing consumer saw %d events, want some of the first 2501", seen)
	}
	h.Flush()
	if len(early) != seen {
		t.Fatal("batch delivered after unsubscribe")
	}
	if got := slices.Concat(h.batches...); len(got) != 5000 || got[0].A != 0 || got[4999].A != 4999 {
		t.Fatalf("remaining consumer saw %d events", len(got))
	}
	p.Emit(60_000, EvDetect, 0, 0)
	h.cancel()
	if h.sequencing.Load() || len(h.seq.buf) != 0 {
		t.Fatalf("hub still sequencing (%d buffered) with no ordered subscriber", len(h.seq.buf))
	}
	n := len(h.batches)
	p.Emit(70_000, EvDetect, 0, 0)
	h.Flush()
	if len(h.batches) != n || len(h.seq.buf) != 0 {
		t.Fatal("hub buffered or delivered an event with no ordered subscriber")
	}
}

// TestNoBufferingWithoutOrderedSubscriber: metrics-only hubs (the parallel
// runner's shared hub) and raw-only hubs never enter the sequencer.
func TestNoBufferingWithoutOrderedSubscriber(t *testing.T) {
	h := NewHub()
	h.RetainEvents(false)
	raw := 0
	h.Subscribe(func(Event) { raw++ })
	p := h.Probe("n")
	for i := int64(0); i < 5000; i++ {
		p.Emit(5000-i, EvDetect, 1, 0) // backwards: would all be late if sequenced
	}
	h.Flush()
	if raw != 5000 || len(h.seq.buf) != 0 || cap(h.seq.buf) != 0 || h.LateEvents() != 0 {
		t.Fatalf("raw %d, buffered %d (cap %d), late %d: want 5000 and an untouched sequencer",
			raw, len(h.seq.buf), cap(h.seq.buf), h.LateEvents())
	}
}

// TestConcurrentEmitWithOrderedSubscriber is the michican-bench -http shape
// under -race: concurrent emitters on one shared hub that carries an ordered
// subscriber, with raw subscribers churning. Every event is delivered once,
// and each batch is in canonical order.
func TestConcurrentEmitWithOrderedSubscriber(t *testing.T) {
	h := NewHub()
	h.RetainEvents(false)
	var mu sync.Mutex
	delivered := 0
	h.SubscribeOrdered(func(b []Event) {
		mu.Lock()
		defer mu.Unlock()
		delivered += len(b)
		if !slices.IsSortedFunc(b, compareCanonical) {
			t.Error("batch out of canonical order")
		}
	})
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := h.Probe(fmt.Sprintf("trial%d", g%3))
			w := h.Probe("watch")
			for i := 0; i < perG; i++ {
				p.Emit(int64(i), EvDetect, int64(i%11+1), 0)
				if i%100 == 0 {
					w.Emit(int64(i), EvAlert, 0, 1)
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		h.Subscribe(func(Event) {})()
	}
	wg.Wait()
	h.Flush()
	mu.Lock()
	defer mu.Unlock()
	if delivered != goroutines*perG {
		t.Fatalf("ordered subscriber saw %d events, want %d", delivered, goroutines*perG)
	}
}

// TestOrderedEmitAllocatesNothing: once the sequencer's buffer has grown to
// its working size, emitting into a hub with an ordered and a raw
// subscriber and retention off allocates nothing per event.
func TestOrderedEmitAllocatesNothing(t *testing.T) {
	h := NewHub()
	h.RetainEvents(false)
	h.SubscribeOrdered(func([]Event) {})
	h.Subscribe(func(Event) {})
	a, b := h.Probe("a"), h.Probe("b")
	tm := int64(0)
	frame := func() {
		b.Emit(tm+20, EvTxStart, 0x123, 0)
		a.Emit(tm+10, EvArbLost, 3, 0)
		b.Emit(tm+110, EvTxSuccess, 0x123, 0)
		tm += 130
	}
	for i := 0; i < 5000; i++ {
		frame()
	}
	if got := testing.AllocsPerRun(5000, frame); got != 0 {
		t.Fatalf("emitting a frame allocates %v times, want 0", got)
	}
}
