package telemetry

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestSequencerOrderUnderSubscriberChurn closes the coverage gap the durable
// store leans on: an ordered consumer (the store's sink shape) must receive
// every event in canonical order even while other raw and ordered
// subscribers join and leave the hub mid-stream. Churn rebuilds the hub's
// subscriber lists under emission; the long-lived consumer's view must be
// unaffected — no losses, no duplicates, no reorders beyond the sequencer's
// contract.
func TestSequencerOrderUnderSubscriberChurn(t *testing.T) {
	h := NewHub()
	h.RetainEvents(true)
	var mu sync.Mutex
	var released []Event
	cancel := h.SubscribeOrdered(func(b []Event) {
		mu.Lock()
		released = append(released, b...)
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
				h.SubscribeOrdered(func([]Event) {})()
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
	h.Flush()
	cancel()
	mu.Lock()
	defer mu.Unlock()

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
// every EvFFSpan path code, retired ones too, both EvError roles, every
// error-kind code, and both alert states — through WriteJSONL and parses it
// back, asserting a lossless round trip. This is the encoder/decoder pairing
// the durable store's replay path depends on. The Chrome exporter must label
// every path code's span by the same name table, and replaying the parsed
// stream through a fresh hub must count only the live path codes.
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
	paths := []string{"idle", "frame", "contend", "splice", "hyper"} // EvFFSpan B = 0..4; 1 and 4 retired
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

	replay := NewHub()
	for _, ev := range got {
		replay.Probe(ev.Node).Emit(ev.Time, ev.Kind, ev.A, ev.B)
	}
	ff := map[string]int64{}
	for k, v := range replay.Registry().SnapshotCounters() {
		if strings.HasPrefix(k, "michican_ff_") {
			ff[k] = v
		}
	}
	wantFF := map[string]int64{
		`michican_ff_idle_bits_total{node="node"}`:    100,
		`michican_ff_contend_bits_total{node="node"}`: 102,
		`michican_ff_splice_bits_total{node="node"}`:  103,
	}
	if !reflect.DeepEqual(ff, wantFF) {
		t.Errorf("replayed ff counters %v, want %v (retired codes 1 and 4 count nowhere)", ff, wantFF)
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
