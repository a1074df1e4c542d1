package telemetry

import "sort"

// sequencerSlack is the hub's reorder horizon in bit times. Batch
// fast-path delivery hands each node its whole span one node at a time, so
// an event can arrive displaced from global bit-time order by at most one
// span length. Spans are bounded by the longest classic CAN frame plus
// error signalling (~160 bits) — idle jumps carry no node events — so 4096
// bits of slack is a generous safety margin. The hub counts every event
// that arrives too late anyway (LateEvents).
const sequencerSlack = 4096

// sequencerDrainLen is the buffered-event count that triggers an incremental
// drain.
const sequencerDrainLen = 1024

// sequencer restores global (Time, Node) order over a stream of events that
// arrives ordered per node but interleaved across nodes, without waiting for
// the end of the run. Events older than the newest-seen time minus the slack
// are released in canonical order: ascending Time, ties broken by Node, and
// same-(Time, Node) events kept in arrival order — the same canonical order
// WriteJSONL produces from a retained log, and identical across exact and
// fast-forward stepping because per-node streams are.
//
// The buffer is kept in canonical order at all times by insertion: a new
// event is placed after every buffered event that does not sort above it,
// scanning back from the tail. Per-node streams are monotone and a
// fast-forward span displaces an event by at most one span, so the scan
// stops within a handful of entries (exact-stepped simulations emit in
// global order and never move anything), and placing an event after its
// equals is what keeps same-(Time, Node) events in arrival order. A drain is
// then a binary search, one batch delivery, and one copy.
//
// The hub owns the only sequencer and serializes it under its seqMu.
type sequencer struct {
	buf  []Event
	maxT int64
	// cut is the cutoff of the last non-empty release. An event older than
	// it arrives late: it may sort before events already released.
	cut  int64
	late int64
}

// add inserts one event and, once the buffer reaches the drain bound,
// releases what has fallen behind the slack to subs.
func (s *sequencer) add(ev Event, subs []*func([]Event)) {
	if ev.Time < s.cut {
		s.late++
	}
	i := len(s.buf)
	s.buf = append(s.buf, ev)
	for ; i > 0; i-- {
		p := &s.buf[i-1]
		if p.Time < ev.Time || (p.Time == ev.Time && p.Node <= ev.Node) {
			break
		}
		s.buf[i] = *p
	}
	s.buf[i] = ev
	if ev.Time > s.maxT {
		s.maxT = ev.Time
	}
	if len(s.buf) >= sequencerDrainLen {
		s.release(s.maxT-sequencerSlack, subs)
	}
}

// release hands the buffered events older than cutoff to each of subs as
// one batch, then drops them. The buffer is sorted by Time first, so the
// releasable prefix is contiguous.
func (s *sequencer) release(cutoff int64, subs []*func([]Event)) {
	n := sort.Search(len(s.buf), func(i int) bool { return s.buf[i].Time >= cutoff })
	if n == 0 {
		return
	}
	for _, fn := range subs {
		(*fn)(s.buf[:n])
	}
	s.buf = s.buf[:copy(s.buf, s.buf[n:])]
	s.cut = cutoff
}
