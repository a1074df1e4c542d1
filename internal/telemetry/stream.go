package telemetry

import (
	"bufio"
	"io"
	"sort"
	"sync"
)

// DefaultSequencerSlack is the reorder horizon used when a Sequencer is
// created with Slack 0. Batch fast-path delivery hands each node its whole
// span one node at a time, so an event can arrive displaced from global
// bit-time order by at most one span length. Spans are bounded by the
// longest classic CAN frame plus error signalling (~160 bits) — idle jumps
// carry no node events — so 4096 bits of slack is a generous safety margin.
const DefaultSequencerSlack = 4096

// sequencerDrainLen is the buffered-event count that triggers an incremental
// drain.
const sequencerDrainLen = 1024

// Sequencer restores global (Time, Node) order over a stream of events that
// arrives ordered per node but interleaved across nodes, without waiting for
// the end of the run. Events older than the newest-seen time minus Slack are
// released to Emit in canonical order: ascending Time, ties broken by Node,
// and same-(Time, Node) events kept in arrival order — the same canonical
// order WriteJSONL produces from a retained log, and identical across exact
// and fast-forward stepping because per-node streams are.
//
// Sequencer is not safe for concurrent use; callers that feed it from
// concurrent emitters must serialize Add.
//
// The buffer is kept in canonical order at all times by insertion: a new
// event is placed after every buffered event that does not sort above it,
// scanning back from the tail. Per-node streams are monotone and a
// fast-forward span displaces an event by at most one span, so the scan
// stops within a handful of entries (exact-stepped simulations emit in
// global order and never move anything), and placing an event after its
// equals is what keeps same-(Time, Node) events in arrival order. A drain is
// then a binary search, the emits, and one copy.
type Sequencer struct {
	// Slack is the reorder horizon in bit times (DefaultSequencerSlack when
	// zero). Events can be released as soon as they are Slack older than the
	// newest event seen.
	Slack int64
	// Emit receives released events in canonical order.
	Emit func(Event)

	buf  []Event
	maxT int64
}

// Add accepts one event and releases any events that have fallen behind the
// reorder horizon.
func (s *Sequencer) Add(ev Event) {
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
		slack := s.Slack
		if slack == 0 {
			slack = DefaultSequencerSlack
		}
		s.drain(s.maxT - slack)
	}
}

// Flush releases every buffered event. Call at end of run.
func (s *Sequencer) Flush() {
	s.drain(s.maxT + 1)
}

// drain emits all buffered events with Time < cutoff in canonical order and
// compacts the rest. The buffer is sorted by Time first, so the releasable
// prefix is contiguous.
func (s *Sequencer) drain(cutoff int64) {
	i := sort.Search(len(s.buf), func(i int) bool { return s.buf[i].Time >= cutoff })
	for _, ev := range s.buf[:i] {
		s.Emit(ev)
	}
	n := copy(s.buf, s.buf[i:])
	s.buf = s.buf[:n]
}

// JSONLStreamer writes the JSONL event stream incrementally from a hub
// subscription instead of a retained log: memory stays bounded by the
// sequencer's reorder window however long the run, which is what lets
// michican-sim export events with retention off. Create with StreamJSONL,
// then Close after the run to flush the tail.
type JSONLStreamer struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	seq    Sequencer
	hub    *Hub
	names  map[NodeID]string
	cancel func()
	err    error
}

// StreamJSONL subscribes to the hub and streams every event to w in
// canonical bit-time order (the same order WriteJSONL produces).
func StreamJSONL(w io.Writer, h *Hub) *JSONLStreamer {
	s := &JSONLStreamer{bw: bufio.NewWriter(w), hub: h, names: make(map[NodeID]string)}
	s.seq.Emit = s.write
	s.cancel = h.Subscribe(func(ev Event) {
		s.mu.Lock()
		s.seq.Add(ev)
		s.mu.Unlock()
	})
	return s
}

// write renders one released event. Called with s.mu held (via Sequencer.Emit
// from Add/Flush).
func (s *JSONLStreamer) write(ev Event) {
	if s.err != nil {
		return
	}
	name, ok := s.names[ev.Node]
	if !ok {
		name = s.hub.NodeName(ev.Node)
		s.names[ev.Node] = name
	}
	s.err = writeEventJSON(s.bw, name, ev)
}

// Close unsubscribes, flushes the reorder window and the write buffer, and
// returns the first error encountered while streaming.
func (s *JSONLStreamer) Close() error {
	s.cancel()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq.Flush()
	if s.err != nil {
		return s.err
	}
	return s.bw.Flush()
}
