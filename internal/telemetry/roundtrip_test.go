package telemetry

import (
	"bytes"
	"sort"
	"sync"
	"testing"
)

// TestSequencerOrderUnderSubscriberChurn closes the coverage gap the durable
// store leans on: a sequencer-backed consumer (the store's sink shape) must
// release every event in canonical order even while other subscribers join
// and leave the hub mid-stream. Churn rebuilds the hub's copy-on-write
// subscriber list under emission; the long-lived consumer's view must be
// unaffected — no losses, no duplicates, no reorders beyond the sequencer's
// contract.
func TestSequencerOrderUnderSubscriberChurn(t *testing.T) {
	h := NewHub()
	h.RetainEvents(true)
	var mu sync.Mutex
	var released []Event
	seq := Sequencer{Emit: func(ev Event) { released = append(released, ev) }}
	cancel := h.Subscribe(func(ev Event) {
		mu.Lock()
		seq.Add(ev)
		mu.Unlock()
	})

	// Churn runs concurrently with emission: transient subscribers attach
	// and detach as fast as they can.
	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.Subscribe(func(Event) {})()
			}
		}
	}()

	// Two nodes whose spans interleave out of global order, the batch
	// fast-path delivery pattern the sequencer exists to repair.
	a, b := h.Probe("alice"), h.Probe("bob")
	const rounds = 5000
	tm := int64(0)
	for i := 0; i < rounds; i++ {
		tm += 30
		b.Emit(tm+20, EvTxStart, 0x123, 0)
		a.Emit(tm+10, EvArbLost, 2, 0)
		tm += 50
	}
	close(stop)
	churnWG.Wait()
	cancel()
	mu.Lock()
	seq.Flush()
	mu.Unlock()

	if len(released) != 2*rounds {
		t.Fatalf("sequencer released %d events, want %d (churn lost or duplicated events)", len(released), 2*rounds)
	}
	if !sort.SliceIsSorted(released, func(i, j int) bool {
		if released[i].Time != released[j].Time {
			return released[i].Time < released[j].Time
		}
		return released[i].Node < released[j].Node
	}) {
		t.Fatal("released stream is not in canonical (Time, Node) order")
	}
	// The released stream must match the retained log's canonical order
	// exactly — same events, same order WriteJSONL would produce.
	want := h.sortedEvents()
	for i := range want {
		if released[i] != want[i] {
			t.Fatalf("event %d: released %+v, canonical %+v", i, released[i], want[i])
		}
	}
}

// TestReadJSONLRoundTripEveryKind writes one event of every kind — including
// every EvFFSpan path code, both EvError roles, every error-kind code, and
// both alert states — through WriteJSONL and parses it back, asserting a
// lossless round trip. This is the encoder/decoder pairing the durable
// store's replay path depends on. The Chrome exporter must label every path
// code's span by the same name table.
func TestReadJSONLRoundTripEveryKind(t *testing.T) {
	h := NewHub()
	p := h.Probe("node")
	tm := int64(0)
	emit := func(k Kind, a, b int64) {
		tm += 10
		p.Emit(tm, k, a, b)
	}
	emit(EvArbWon, 0x7FF, 0)
	emit(EvArbWon, 0x001, 0) // exercises the %03X zero-padding
	emit(EvArbLost, 5, 0)
	emit(EvDetect, 9, 0)
	emit(EvPullStart, 7, 0)
	emit(EvPullEnd, 7, 0)
	for code := int64(1); code <= 5; code++ { // bit, stuff, form, crc, ack
		emit(EvError, code, code%2) // alternating rx/tx roles
	}
	emit(EvErrorEnd, 0, 0)
	emit(EvTEC, 8, 0)
	emit(EvREC, 1, 2)
	emit(EvBusOff, 0, 0)
	emit(EvRecover, 0, 0)
	paths := []string{"idle", "frame", "contend", "splice"} // EvFFSpan B = 0..3
	for path := range paths {
		emit(EvFFSpan, 100+int64(path), int64(path))
	}
	emit(EvTxStart, 0x173, 0)
	emit(EvTxSuccess, 0x173, 0)
	emit(EvAlert, 3, 1)
	emit(EvAlert, 3, 0)

	events := h.sortedEvents()
	var buf bytes.Buffer
	if err := h.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("round trip returned %d events, want %d", len(got), len(events))
	}
	for i, ev := range events {
		want := NamedEvent{Time: ev.Time, Node: "node", Kind: ev.Kind, A: ev.A, B: ev.B}
		if got[i] != want {
			t.Fatalf("event %d (%s): round trip %+v, want %+v", i, ev.Kind, got[i], want)
		}
	}

	buf.Reset()
	if err := h.WriteChromeTrace(&buf, 500_000); err != nil {
		t.Fatal(err)
	}
	for _, name := range paths {
		if !bytes.Contains(buf.Bytes(), []byte(`"name":"`+name+`-ff"`)) {
			t.Errorf("chrome trace has no %s-ff span", name)
		}
	}
}
