package telemetry

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refSequencer is the hub sequencer's specification written the slow,
// obvious way: buffer every non-alert event, and at the same drain points
// (the 1024-entry bound and Flush) stable-sort the buffer by (Time, Node) and
// release the prefix older than the cutoff as one batch. An arrival older
// than the cutoff of the last non-empty release is late.
type refSequencer struct {
	buf     []Event
	maxT    int64
	batches [][]Event
	cut     int64
	late    int64
}

func (r *refSequencer) add(ev Event) {
	if ev.Kind == EvAlert {
		return
	}
	if ev.Time < r.cut {
		r.late++
	}
	r.buf = append(r.buf, ev)
	r.maxT = max(r.maxT, ev.Time)
	if len(r.buf) >= sequencerDrainLen {
		r.drain(r.maxT - sequencerSlack)
	}
}

func (r *refSequencer) flush() { r.drain(r.maxT + 1) }

func (r *refSequencer) drain(cutoff int64) {
	stableSortEvents(r.buf)
	i := 0
	for i < len(r.buf) && r.buf[i].Time < cutoff {
		i++
	}
	if i > 0 {
		r.batches = append(r.batches, slices.Clone(r.buf[:i]))
		r.cut = cutoff
	}
	r.buf = append(r.buf[:0], r.buf[i:]...)
}

// compareCanonical orders events by (Time, Node); a stable sort by it keeps
// arrival order among equals.
func compareCanonical(a, b Event) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	return cmp.Compare(a.Node, b.Node)
}

func stableSortEvents(evs []Event) { slices.SortStableFunc(evs, compareCanonical) }

// sequencerInput generates the delivery pattern the sequencer exists for:
// per-node-monotone streams handed over one span at a time, each node's
// share of a span delivered whole before the next node's, so events arrive
// displaced by up to one span. Spans run up to maxSpan bits; with late > 0,
// roughly one event in late arrives from further back than the slack; with
// alerts > 0, roughly one event in alerts is an EvAlert from the extra node
// `nodes`, which the sequencer must pass by. Several events share a bit, so
// ties on (Time, Node) keep arrival order only if the sequencer is stable.
// The A argument numbers events in arrival order, making every event
// distinct.
func sequencerInput(rng *rand.Rand, n int, nodes int, maxSpan int64, late, alerts int) []Event {
	var evs []Event
	t := int64(0)
	for len(evs) < n {
		span := 1 + rng.Int63n(maxSpan)
		for _, node := range rng.Perm(nodes) {
			k := rng.Intn(8)
			times := make([]int64, k)
			for i := range times {
				times[i] = t + rng.Int63n(span)
			}
			slices.Sort(times)
			for _, tm := range times {
				if late > 0 && rng.Intn(late) == 0 {
					tm -= sequencerSlack + 1 + rng.Int63n(2*sequencerSlack+1)
				}
				evs = append(evs, Event{Time: tm, Node: NodeID(node), Kind: EvDetect, A: int64(len(evs))})
				if alerts > 0 && rng.Intn(alerts) == 0 {
					evs = append(evs, Event{Time: t, Node: NodeID(nodes), Kind: EvAlert, A: int64(len(evs))})
				}
			}
		}
		t += span
	}
	return evs
}

// orderedHub is a hub with probes n0..n<nodes> registered in order, so
// probe i emits as NodeID i, and an ordered subscriber that records each
// batch it receives.
type orderedHub struct {
	*Hub
	probes  []Probe
	batches [][]Event
	cancel  func()
}

func newOrderedHub(nodes int) *orderedHub {
	h := &orderedHub{Hub: NewHub()}
	h.RetainEvents(false)
	for i := 0; i <= nodes; i++ {
		h.probes = append(h.probes, h.Probe(fmt.Sprintf("n%d", i)))
	}
	h.cancel = h.SubscribeOrdered(func(b []Event) { h.batches = append(h.batches, slices.Clone(b)) })
	return h
}

func (h *orderedHub) emit(ev Event) { h.probes[ev.Node].Emit(ev.Time, ev.Kind, ev.A, ev.B) }

// checkAgainstRef replays in through the hub and the reference, flushing
// both after the inputs flushAt marks and at the end, and requires the
// same batches, batch for batch, and the same late count.
func checkAgainstRef(t *testing.T, nodes int, in []Event, flushAt map[int]bool) *orderedHub {
	t.Helper()
	h := newOrderedHub(nodes)
	var ref refSequencer
	for i, ev := range in {
		h.emit(ev)
		ref.add(ev)
		if flushAt[i] {
			h.Flush()
			ref.flush()
		}
	}
	h.Flush()
	ref.flush()
	if len(h.batches) != len(ref.batches) {
		t.Fatalf("hub delivered %d batches, the drain-point specification %d", len(h.batches), len(ref.batches))
	}
	for i := range ref.batches {
		if !slices.Equal(h.batches[i], ref.batches[i]) {
			t.Fatalf("batch %d: hub delivered %d events, specification %d (or in another order)", i, len(h.batches[i]), len(ref.batches[i]))
		}
	}
	if got := h.LateEvents(); got != ref.late {
		t.Fatalf("LateEvents = %d, specification counts %d", got, ref.late)
	}
	return h
}

// TestSequencerMatchesStableSort is the property test of the hub's
// sorted-insert sequencer: on random per-node-monotone streams with
// displaced spans up to the slack, late events past the slack, and
// mid-stream Flushes, the hub's ordered subscriber receives exactly the
// batches the stable-sort specification drains, boundary for boundary —
// the drain-point invariant that fixes where forensics closes incidents
// and so where watch interleaves alerts. With no late events that is the
// stable (Time, Node) sort of the whole input. Every case runs several
// thousand events through the 1024-entry drain bound.
func TestSequencerMatchesStableSort(t *testing.T) {
	cases := []struct {
		name    string
		maxSpan int64
		late    int
		flushes int
	}{
		{"default-slack", 160, 0, 0},
		{"span-equals-slack", sequencerSlack, 0, 0},
		{"tight-slack", sequencerSlack, 0, 3},
		{"late-events", 160, 50, 0},
		{"late-events-flushed", 3000, 20, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for trial := int64(0); trial < 8; trial++ {
				rng := rand.New(rand.NewSource(trial))
				nodes := 1 + rng.Intn(6)
				in := sequencerInput(rng, 6000, nodes, tc.maxSpan, tc.late, 0)
				flushAt := map[int]bool{}
				for i := 0; i < tc.flushes; i++ {
					flushAt[rng.Intn(len(in))] = true
				}
				h := checkAgainstRef(t, nodes, in, flushAt)
				if len(h.batches) < 2 {
					t.Fatalf("trial %d: nothing released before the final Flush; the drain bound was never reached", trial)
				}
				if tc.late > 0 && h.LateEvents() == 0 {
					t.Fatalf("trial %d: late events went uncounted", trial)
				}
				if tc.late == 0 && tc.flushes == 0 {
					if h.LateEvents() != 0 {
						t.Fatalf("trial %d: %d late events on a stream displaced by at most one span", trial, h.LateEvents())
					}
					want := slices.Clone(in)
					stableSortEvents(want)
					if got := slices.Concat(h.batches...); !slices.Equal(got, want) {
						t.Fatalf("trial %d: released order is not the stable (Time, Node) sort of the input", trial)
					}
				}
			}
		})
	}
}

// TestOrderedDeliveryBypassesAlerts: alerts interleaved with the stream
// reach raw subscribers in emission order but never enter a batch, and do
// not move the drain points the non-alert stream sets.
func TestOrderedDeliveryBypassesAlerts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := sequencerInput(rng, 8000, 3, 160, 0, 5)
	var raw []Event
	alerts := 0
	h := newOrderedHub(3)
	h.Subscribe(func(ev Event) { raw = append(raw, ev) })
	var ref refSequencer
	for _, ev := range in {
		h.emit(ev)
		ref.add(ev)
		if ev.Kind == EvAlert {
			alerts++
		}
	}
	h.Flush()
	ref.flush()
	if alerts == 0 {
		t.Fatal("input carries no alerts")
	}
	if !slices.Equal(raw, in) {
		t.Fatal("raw subscriber did not see the emission-order stream, alerts included")
	}
	for i, b := range h.batches {
		if slices.ContainsFunc(b, func(ev Event) bool { return ev.Kind == EvAlert }) {
			t.Fatalf("batch %d carries an alert", i)
		}
		if i >= len(ref.batches) || !slices.Equal(b, ref.batches[i]) {
			t.Fatalf("batch %d differs from the drain runs of the alert-free stream", i)
		}
	}
	if len(h.batches) != len(ref.batches) {
		t.Fatalf("hub delivered %d batches, want %d", len(h.batches), len(ref.batches))
	}
}

// BenchmarkSequencer feeds a hub with one ordered subscriber and retention
// off the fast-forward delivery pattern — four nodes, ~130-bit spans, each
// node's events for a span delivered whole — and reports the cost per
// emitted tx_start, sequencing and batch delivery included.
func BenchmarkSequencer(b *testing.B) {
	in := sequencerInput(rand.New(rand.NewSource(1)), 1<<16, 4, 130, 0, 0)
	span := in[len(in)-1].Time + sequencerSlack
	h := NewHub()
	h.RetainEvents(false)
	probes := []Probe{h.Probe("n0"), h.Probe("n1"), h.Probe("n2"), h.Probe("n3")}
	h.SubscribeOrdered(func([]Event) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := in[i%len(in)]
		probes[ev.Node].Emit(ev.Time+int64(i/len(in))*span, EvTxStart, ev.A, ev.B)
	}
	h.Flush()
}

// FuzzHubOrdered holds the hub's batch delivery to the drain-point
// specification on fuzzer-chosen streams: per-node-monotone spans displaced
// up to maxSpan bits, events from past the slack, interleaved alerts and
// mid-stream Flushes.
func FuzzHubOrdered(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(160), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(6), uint16(4096), uint8(0), uint8(4), uint8(2))
	f.Add(int64(3), uint8(2), uint16(40), uint8(30), uint8(9), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nodes uint8, maxSpan uint16, late, alerts, flushes uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nodes%8)
		in := sequencerInput(rng, 3000, n, 1+int64(maxSpan%(2*sequencerSlack)), int(late), int(alerts))
		flushAt := map[int]bool{}
		for i := 0; i < int(flushes%8); i++ {
			flushAt[rng.Intn(len(in))] = true
		}
		checkAgainstRef(t, n, in, flushAt)
	})
}
