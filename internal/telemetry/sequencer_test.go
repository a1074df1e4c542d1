package telemetry

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// refSequencer is the Sequencer's specification written the slow, obvious
// way: buffer everything, and at the same drain points (the 1024-entry bound
// and Flush) stable-sort the buffer by (Time, Node) and release the prefix
// older than the cutoff.
type refSequencer struct {
	slack int64
	buf   []Event
	maxT  int64
	out   []Event
}

func (r *refSequencer) add(ev Event) {
	r.buf = append(r.buf, ev)
	r.maxT = max(r.maxT, ev.Time)
	if len(r.buf) >= sequencerDrainLen {
		slack := r.slack
		if slack == 0 {
			slack = DefaultSequencerSlack
		}
		r.drain(r.maxT - slack)
	}
}

func (r *refSequencer) flush() { r.drain(r.maxT + 1) }

func (r *refSequencer) drain(cutoff int64) {
	stableSortEvents(r.buf)
	i := 0
	for i < len(r.buf) && r.buf[i].Time < cutoff {
		i++
	}
	r.out = append(r.out, r.buf[:i]...)
	r.buf = append(r.buf[:0], r.buf[i:]...)
}

func stableSortEvents(evs []Event) {
	slices.SortStableFunc(evs, func(a, b Event) int {
		if c := cmp.Compare(a.Time, b.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.Node, b.Node)
	})
}

// sequencerInput generates the delivery pattern the Sequencer exists for:
// per-node-monotone streams handed over one span at a time, each node's
// share of a span delivered whole before the next node's, so events arrive
// displaced by up to one span. Spans run up to maxSpan bits; with late > 0,
// roughly one event in late arrives from further back than the slack.
// Several events share a bit, so ties on (Time, Node) keep arrival order
// only if the Sequencer is stable. The A argument numbers events in arrival
// order, making every event distinct.
func sequencerInput(rng *rand.Rand, n int, nodes int, maxSpan, slack int64, late int) []Event {
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
					tm -= slack + 1 + rng.Int63n(2*slack+1)
				}
				evs = append(evs, Event{Time: tm, Node: NodeID(node), Kind: EvDetect, A: int64(len(evs))})
			}
		}
		t += span
	}
	return evs
}

// TestSequencerMatchesStableSort is the property test of the sorted-insert
// Sequencer: on random per-node-monotone streams with displaced spans up to
// the slack, late events past the slack, and mid-stream Flushes, it releases
// exactly what the stable-sort specification releases, in the same order.
// With no late events that is the stable (Time, Node) sort of the whole
// input. Every case runs several thousand events through the 1024-entry
// drain bound.
func TestSequencerMatchesStableSort(t *testing.T) {
	cases := []struct {
		name    string
		slack   int64 // 0 = DefaultSequencerSlack
		maxSpan int64
		late    int
		flushes int
	}{
		{"default-slack", 0, 160, 0, 0},
		{"span-equals-slack", 64, 64, 0, 0},
		{"tight-slack", 8, 8, 0, 3},
		{"late-events", 32, 32, 50, 0},
		{"late-events-flushed", 200, 150, 20, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for trial := int64(0); trial < 8; trial++ {
				rng := rand.New(rand.NewSource(trial))
				slack := tc.slack
				if slack == 0 {
					slack = DefaultSequencerSlack
				}
				in := sequencerInput(rng, 6000, 1+rng.Intn(6), tc.maxSpan, slack, tc.late)
				flushAt := map[int]bool{}
				for i := 0; i < tc.flushes; i++ {
					flushAt[rng.Intn(len(in))] = true
				}

				var got []Event
				s := Sequencer{Slack: tc.slack, Emit: func(ev Event) { got = append(got, ev) }}
				ref := refSequencer{slack: tc.slack}
				drained := false
				for i, ev := range in {
					s.Add(ev)
					ref.add(ev)
					drained = drained || len(got) > 0
					if flushAt[i] {
						s.Flush()
						ref.flush()
					}
				}
				s.Flush()
				ref.flush()

				if !drained {
					t.Fatalf("trial %d: nothing released before the final Flush; the drain bound was never reached", trial)
				}
				if !slices.Equal(got, ref.out) {
					t.Fatalf("trial %d: released order differs from the stable-sort specification (%d vs %d events)", trial, len(got), len(ref.out))
				}
				if tc.late == 0 && tc.flushes == 0 {
					want := slices.Clone(in)
					stableSortEvents(want)
					if !slices.Equal(got, want) {
						t.Fatalf("trial %d: released order is not the stable (Time, Node) sort of the input", trial)
					}
				}
			}
		})
	}
}

// BenchmarkSequencer feeds the Sequencer the fast-forward delivery pattern —
// four nodes, ~130-bit spans, each node's events for a span delivered whole —
// and reports the cost per event.
func BenchmarkSequencer(b *testing.B) {
	in := sequencerInput(rand.New(rand.NewSource(1)), 1<<16, 4, 130, DefaultSequencerSlack, 0)
	span := in[len(in)-1].Time + DefaultSequencerSlack
	s := Sequencer{Emit: func(Event) {}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := in[i%len(in)]
		ev.Time += int64(i/len(in)) * span
		s.Add(ev)
	}
	s.Flush()
}
