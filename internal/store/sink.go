package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"michican/internal/telemetry"
)

// Sink drain thresholds when SinkOptions leaves them zero. They mirror the
// fleet's net-commit discipline (an event threshold or a bit interval): drain
// when enough events have accumulated or when the simulation has advanced far
// enough that even a quiet store should make its tail durable.
const (
	DefaultFlushEvents       = 4096
	DefaultFlushIntervalBits = 1 << 20
	// sinkBatchEvents is the hand-off granularity between the emitting
	// goroutine and the writer goroutine: the hot path buffers this many
	// events before shipping them off the simulation thread.
	sinkBatchEvents = 1024
	// sinkQueueBatches bounds the in-flight hand-off queue. A full queue
	// blocks the emitter (backpressure) so memory stays bounded when the
	// disk cannot keep up.
	sinkQueueBatches = 8
	// sinkSyncInterval is the group-commit fsync cadence under FsyncGroup:
	// drains flush to the OS at the event threshold, but the fsync itself
	// fires at most once per interval of wall time. A crash therefore loses
	// at most this much freshly-flushed tail — which checkpoint-resume
	// regenerates bit-identically anyway, so the window trades nothing but
	// a few hundred milliseconds of re-simulation. Keeping it long also
	// keeps an idle bus from paying a steady fsync tax, and fast-forwarded
	// cells, whose simulated-bit clock runs thousands of times faster than
	// the wall clock, stop paying one fsync per 4096 events.
	sinkSyncInterval = 250 * time.Millisecond
)

// SinkOptions tunes a Sink. The zero value persists every event with
// group-commit fsyncs per the store's meta policy and no automatic
// checkpoints.
type SinkOptions struct {
	// FlushEvents drains after this many appended-but-unflushed events
	// (DefaultFlushEvents when zero).
	FlushEvents int64
	// FlushIntervalBits drains when the event stream has advanced this many
	// bit times since the last drain (DefaultFlushIntervalBits when zero).
	FlushIntervalBits int64
	// CheckpointIntervalBits writes a checkpoint every so many bit times of
	// stream progress. Zero disables automatic checkpoints (explicit
	// Checkpoint calls still work).
	CheckpointIntervalBits int64
	// SkipEvents puts the sink in resume mode: the first SkipEvents canonical
	// events are hashed and discarded instead of appended, because they are
	// already durable from the interrupted run. SkipIncidents does the same
	// for incident handoffs.
	SkipEvents    int64
	SkipIncidents int64
	// SkipAlerts mirrors SkipIncidents for the watch engine's alert log.
	SkipAlerts int64
	// ExpectPrefixHash / ExpectIncidentHash / ExpectAlertHash, when non-empty,
	// are compared against the running hash once the skip cursor is reached; a
	// mismatch poisons the sink (Err reports it) because the regenerated
	// prefix diverged from the durable one and appending the tail would
	// corrupt the log.
	ExpectPrefixHash   string
	ExpectIncidentHash string
	ExpectAlertHash    string
	// ResumeFromBits seeds the flush/checkpoint interval clocks at resume so
	// the first post-resume checkpoint does not fire immediately.
	ResumeFromBits int64
}

// Sink subscribes to a telemetry hub's ordered stream and persists it,
// fast-forward spans and alerts excepted, into a Store. The hub's one
// sequencer hands it canonical (Time, Node, arrival) batches, so events land
// on disk in the order WriteJSONL writes them. Each joins the sink's open
// event block — each reads back exactly the event WriteJSONL's line for it
// would — which goes to the store, under one store lock, when it fills;
// the log drains to disk on NetCommitter-style thresholds with one group
// fsync per drain.
//
// A checkpoint reaches the last whole block, not the last event: its events
// cursor and prefix hash are those of the block boundary, so checkpoints
// never cut a block and the block layout stays a function of the event
// stream alone. A checkpoint thus trails its bit time by under blockEvents
// events, which a resumed run regenerates with the rest of its tail.
//
// The hub callback only buffers: each batch is copied into a hand-off
// buffer under one lock, and full buffers ship to a dedicated writer
// goroutine that does everything expensive (record encoding, CRC framing,
// disk writes, group fsyncs). The on-disk layout is unaffected by the
// hand-off — segment rolls are a pure function of the record stream — so
// persistence costs the simulation thread a copy, not a write. Persistence
// errors are sticky and surface from Err, Checkpoint, and Close rather than
// panicking the datapath.
//
// Close requires that emission has stopped (detach order: stop the sim, then
// Close the sink) — events still in flight on other goroutines at Close time
// are not guaranteed to persist, exactly as a crash would drop them.
type Sink struct {
	st   *Store
	hub  *telemetry.Hub
	opts SinkOptions

	cancel func()

	// Hot path: the hub's batch callback copies into inBuf under inMu; full
	// buffers ship through work to the writer goroutine, which recycles
	// their backing arrays through free.
	inMu  sync.Mutex
	inBuf []telemetry.Event
	added atomic.Int64 // events shipped to the writer
	work  chan sinkBatch
	free  chan []telemetry.Event
	done  chan struct{}

	// mu guards the writer-side state below plus the incident cursor. The
	// writer holds it while processing a batch; control calls (Checkpoint,
	// AppendIncidents, Close, Err) take it between batches.
	mu    sync.Mutex
	names map[telemetry.NodeID]string
	enc   []byte
	blk   eventBlock // the open block of the events being persisted

	evHash       uint64 // FNV-1a over appended (or skipped) events' records, canonical order
	incHash      uint64 // same, over incident payloads
	alertHash    uint64 // same, over alert payloads
	wholeEvents  int64  // events the store holds in whole blocks: a checkpoint's reach
	wholeHash    uint64 // evHash as of the last of those events
	skippedEv    int64
	skippedInc   int64
	skippedAlert int64

	pendEvents   int64 // appended since last drain
	lastFlushT   int64
	lastCpT      int64
	lastSyncWall time.Time
	err          error

	// Registry instruments (on the hub's registry, so the counters surface on
	// /metrics, the obs snapshot, and — via the fleet NetCommitter fold —
	// /fleet/metrics). Reconciled from Store.Stats deltas at drain points to
	// keep the per-event path free of extra atomics.
	cEvents, cIncidents, cAlerts, cBytes, cSealed, cFsyncs, cCheckpoints *telemetry.Counter
	gBacklog, gCheckpointMs                                              *telemetry.Gauge
	lastStats                                                            Stats
	lastSyncAt                                                           atomic.Int64 // unix nanos of the last fsync (health probe input)

	closed atomic.Bool // set by the first Close
}

// sinkBatch is one hand-off unit. A non-nil done channel is a barrier: the
// writer closes it once every event received before the hand-off is
// processed.
type sinkBatch struct {
	evs  []telemetry.Event
	done chan struct{}
}

const fnvOffset64 = 14695981039346656037

// NewSink attaches a persistence sink to hub, writing into st. Detach with
// Close.
func NewSink(st *Store, hub *telemetry.Hub, opts SinkOptions) *Sink {
	if opts.FlushEvents == 0 {
		opts.FlushEvents = DefaultFlushEvents
	}
	if opts.FlushIntervalBits == 0 {
		opts.FlushIntervalBits = DefaultFlushIntervalBits
	}
	s := &Sink{
		st:           st,
		hub:          hub,
		opts:         opts,
		inBuf:        make([]telemetry.Event, 0, sinkBatchEvents),
		work:         make(chan sinkBatch, sinkQueueBatches),
		free:         make(chan []telemetry.Event, sinkQueueBatches+1),
		done:         make(chan struct{}),
		names:        make(map[telemetry.NodeID]string),
		evHash:       fnvOffset64,
		wholeEvents:  opts.SkipEvents,
		wholeHash:    fnvOffset64,
		incHash:      fnvOffset64,
		alertHash:    fnvOffset64,
		lastFlushT:   opts.ResumeFromBits,
		lastCpT:      opts.ResumeFromBits,
		lastSyncWall: time.Now(),
	}
	s.lastSyncAt.Store(time.Now().UnixNano())
	reg := hub.Registry()
	s.cEvents = reg.Counter("michican_store_events_appended_total")
	s.cIncidents = reg.Counter("michican_store_incidents_appended_total")
	s.cAlerts = reg.Counter("michican_store_alerts_appended_total")
	s.cBytes = reg.Counter("michican_store_bytes_appended_total")
	s.cSealed = reg.Counter("michican_store_segments_sealed_total")
	s.cFsyncs = reg.Counter("michican_store_fsyncs_total")
	s.cCheckpoints = reg.Counter("michican_store_checkpoints_total")
	s.gBacklog = reg.Gauge("michican_store_drain_backlog")
	s.gCheckpointMs = reg.Gauge("michican_store_checkpoint_ms")
	go s.writer()
	s.cancel = hub.SubscribeOrdered(s.receive)
	return s
}

// receive is the hub's batch callback: it copies the batch into the
// hand-off buffer, shipping every full buffer to the writer. Spans stay
// out: their ends fall on Run boundaries, so persisting them would make the
// stored stream depend on how the caller slices Advance; their bit counts
// live in the hub's michican_ff_* counters. Alerts never reach an ordered
// subscriber; they persist in their own log (AppendAlerts).
func (s *Sink) receive(batch []telemetry.Event) {
	s.inMu.Lock()
	for _, ev := range batch {
		if ev.Kind != telemetry.EvFFSpan {
			s.inBuf = append(s.inBuf, ev)
			if len(s.inBuf) == sinkBatchEvents {
				s.shipLocked(nil)
			}
		}
	}
	s.inMu.Unlock()
}

// shipLocked hands the hot-path buffer to the writer, optionally with a
// barrier the writer closes once the batch is processed, and swaps in a
// recycled buffer. Empty buffers still ship when a barrier rides along.
// Called with inMu held, and holds it across the send so a concurrent
// barrier cannot overtake a full buffer; the writer never takes inMu, so a
// full queue only blocks (backpressure), it cannot deadlock.
func (s *Sink) shipLocked(barrier chan struct{}) {
	evs := s.inBuf
	if len(evs) == 0 && barrier == nil {
		return
	}
	select {
	case s.inBuf = <-s.free:
	default:
		s.inBuf = make([]telemetry.Event, 0, sinkBatchEvents)
	}
	s.added.Add(int64(len(evs)))
	s.work <- sinkBatch{evs: evs, done: barrier}
}

// barrier flushes the hot-path buffer and waits until the writer has
// processed every event received so far.
func (s *Sink) barrier() {
	ch := make(chan struct{})
	s.inMu.Lock()
	s.shipLocked(ch)
	s.inMu.Unlock()
	<-ch
}

// writer is the persistence goroutine: it owns the store appends, so the
// emitting thread never waits on the disk.
func (s *Sink) writer() {
	defer close(s.done)
	for b := range s.work {
		s.mu.Lock()
		for _, ev := range b.evs {
			s.release(ev)
		}
		s.mu.Unlock()
		if b.evs != nil {
			select {
			case s.free <- b.evs[:0]:
			default:
			}
		}
		if b.done != nil {
			close(b.done)
		}
	}
}

// hashPayload folds one payload into a running FNV-1a hash, with a newline
// folded in after each payload as the record separator. A prefix hash
// therefore pins the exact bytes of the prefix in order: each event's
// format-3 record (telemetry.AppendEventRecord) whatever block holds it,
// and the JSON incident and alert payloads.
func hashPayload(h uint64, payload []byte) uint64 {
	const prime = 1099511628211
	for _, b := range payload {
		h ^= uint64(b)
		h *= prime
	}
	h ^= '\n'
	h *= prime
	return h
}

func hashString(h uint64) string { return fmt.Sprintf("%016x", h) }

// release persists one canonically-ordered event. Called with s.mu held, on
// the writer goroutine.
func (s *Sink) release(ev telemetry.Event) {
	if s.err != nil {
		return
	}
	name, ok := s.names[ev.Node]
	if !ok {
		name = s.hub.NodeName(ev.Node)
		s.names[ev.Node] = name
	}
	s.enc = telemetry.AppendEventRecord(s.enc[:0], name, ev)
	s.evHash = hashPayload(s.evHash, s.enc)
	if s.skippedEv < s.opts.SkipEvents {
		// Resume: this event is already durable from the interrupted run.
		// Hash it for the boundary check instead of re-appending.
		s.skippedEv++
		if s.skippedEv == s.opts.SkipEvents {
			s.wholeHash = s.evHash
			if got := hashString(s.evHash); s.opts.ExpectPrefixHash != "" && got != s.opts.ExpectPrefixHash {
				s.err = fmt.Errorf("store: resume prefix diverged: regenerated %d events hash %s, checkpoint recorded %s",
					s.skippedEv, got, s.opts.ExpectPrefixHash)
			}
		}
		return
	}
	s.blk.enc.Append(name, ev)
	if s.blk.full() {
		s.writeBlockLocked()
	}
	s.pendEvents++
	if s.pendEvents >= s.opts.FlushEvents || ev.Time-s.lastFlushT >= s.opts.FlushIntervalBits {
		s.drainLocked(ev.Time)
	}
	if s.opts.CheckpointIntervalBits > 0 && ev.Time-s.lastCpT >= s.opts.CheckpointIntervalBits {
		s.checkpointLocked(ev.Time, false)
	}
}

// writeBlockLocked hands the open block to the store; the events then lie in
// whole blocks, where a checkpoint may reach them.
func (s *Sink) writeBlockLocked() {
	whole, err := s.st.appendBlock(&s.blk)
	if err != nil {
		s.err = err
		return
	}
	s.wholeEvents, s.wholeHash = whole, s.evHash
}

// drainLocked flushes the appended tail to the OS, group-commits it with an
// fsync when the policy and wall-clock cadence call for one, and reconciles
// the registry instruments.
func (s *Sink) drainLocked(t int64) {
	var err error
	if s.st.Meta().Fsync == FsyncGroup && time.Since(s.lastSyncWall) >= sinkSyncInterval {
		err = s.st.Sync()
		s.lastSyncWall = time.Now()
		s.lastSyncAt.Store(s.lastSyncWall.UnixNano())
	} else {
		err = s.st.Flush()
	}
	if err != nil && s.err == nil {
		s.err = err
	}
	s.pendEvents = 0
	s.lastFlushT = t
	s.reconcileLocked()
}

// reconcileLocked folds Store.Stats deltas into the hub registry instruments.
func (s *Sink) reconcileLocked() {
	st := s.st.Stats()
	s.cEvents.Add(st.EventsAppended - s.lastStats.EventsAppended)
	s.cIncidents.Add(st.IncidentsAppended - s.lastStats.IncidentsAppended)
	s.cAlerts.Add(st.AlertsAppended - s.lastStats.AlertsAppended)
	s.cBytes.Add(st.BytesAppended - s.lastStats.BytesAppended)
	s.cSealed.Add(st.SegmentsSealed - s.lastStats.SegmentsSealed)
	s.cFsyncs.Add(st.Fsyncs - s.lastStats.Fsyncs)
	s.cCheckpoints.Add(st.Checkpoints - s.lastStats.Checkpoints)
	s.gCheckpointMs.Set(st.LastCheckpointMs)
	s.lastStats = st
	// Backlog: events shipped to the writer but not yet durable — the
	// hand-off queue, the open block, and anything appended since the last
	// drain. Stats counters restart at zero per process, so at resume the
	// skipped prefix is subtracted rather than the prior run's appends.
	s.gBacklog.Set(float64(s.added.Load() - s.skippedEv - st.EventsAppended))
}

// checkpointLocked writes a checkpoint at bit time t, cursoring the events
// in whole blocks; a completed run's final checkpoint closes the open block
// first and so covers every event. Suppressed while the skip cursor has not
// been reached (the interrupted run's checkpoints already cover that
// prefix).
func (s *Sink) checkpointLocked(t int64, completed bool) {
	if s.err != nil {
		return
	}
	if s.skippedEv < s.opts.SkipEvents {
		return
	}
	start := time.Now()
	if completed {
		s.writeBlockLocked()
		if s.err != nil {
			return
		}
	}
	cp := Checkpoint{
		TimeBits:     t,
		Events:       s.wholeEvents,
		Incidents:    s.st.IncidentCount(),
		Alerts:       s.st.AlertCount(),
		PrefixHash:   hashString(s.wholeHash),
		IncidentHash: hashString(s.incHash),
		AlertHash:    hashString(s.alertHash),
		Completed:    completed,
	}
	if _, err := s.st.WriteCheckpoint(cp); err != nil && s.err == nil {
		s.err = err
	}
	s.st.noteCheckpointMs(float64(time.Since(start).Nanoseconds()) / 1e6)
	s.lastCpT = t
	s.pendEvents = 0
	s.lastFlushT = t
	s.reconcileLocked()
}

// AppendIncidents persists a batch of marshalled incident payloads (the
// forensics package's canonical encoding), honouring the resume skip cursor.
func (s *Sink) AppendIncidents(payloads [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range payloads {
		s.incHash = hashPayload(s.incHash, p)
		if s.skippedInc < s.opts.SkipIncidents {
			s.skippedInc++
			if s.skippedInc == s.opts.SkipIncidents && s.opts.ExpectIncidentHash != "" {
				if got := hashString(s.incHash); got != s.opts.ExpectIncidentHash {
					s.err = fmt.Errorf("store: resume incident prefix diverged: hash %s, checkpoint recorded %s",
						got, s.opts.ExpectIncidentHash)
				}
			}
			continue
		}
		if err := s.st.AppendIncident(p); err != nil {
			if s.err == nil {
				s.err = err
			}
			return err
		}
	}
	return s.err
}

// AppendAlerts persists a batch of marshalled watch-alert payloads (the watch
// package's canonical encoding), honouring the resume skip cursor exactly as
// AppendIncidents does.
func (s *Sink) AppendAlerts(payloads [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range payloads {
		s.alertHash = hashPayload(s.alertHash, p)
		if s.skippedAlert < s.opts.SkipAlerts {
			s.skippedAlert++
			if s.skippedAlert == s.opts.SkipAlerts && s.opts.ExpectAlertHash != "" {
				if got := hashString(s.alertHash); got != s.opts.ExpectAlertHash {
					s.err = fmt.Errorf("store: resume alert prefix diverged: hash %s, checkpoint recorded %s",
						got, s.opts.ExpectAlertHash)
				}
			}
			continue
		}
		if err := s.st.AppendAlert(p); err != nil {
			if s.err == nil {
				s.err = err
			}
			return err
		}
	}
	return s.err
}

// SyncAge reports how long ago the last group fsync completed. Health probes
// use it to flag an fsync stall (a disk that stopped acknowledging writes).
func (s *Sink) SyncAge(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, s.lastSyncAt.Load()))
}

// Backlog reports the events shipped to the writer but not yet durable (the
// hand-off queue, the open block, and anything appended since the last
// drain; the reorder window lives in the hub). It is the same figure the
// michican_store_drain_backlog gauge carries, but readable without a
// registry snapshot.
func (s *Sink) Backlog() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.added.Load() - s.skippedEv - s.lastStats.EventsAppended
}

// Checkpoint waits for the writer to catch up with everything received so
// far and durably records a resume point at bit time t.
func (s *Sink) Checkpoint(t int64) error {
	s.barrier()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checkpointLocked(t, false)
	return s.err
}

// Skipping reports whether the sink is still discarding the regenerated
// prefix of a resumed run.
func (s *Sink) Skipping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skippedEv < s.opts.SkipEvents
}

// Err returns the first persistence or resume-validation error, if any.
func (s *Sink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close flushes the hub's reorder window into the sink (so a crash image,
// Close(t, false) with no forensics Finalize, still persists the tail),
// detaches, joins the writer goroutine, writes the open event block, and
// makes everything durable: when completed is true, by writing a final
// checkpoint marked Completed at bit time t, whose one group commit covers
// every log; otherwise by a Sync. Returns the first error encountered; a
// later Close does nothing more and returns it again.
func (s *Sink) Close(t int64, completed bool) error {
	if s.closed.Swap(true) {
		return s.Err()
	}
	s.hub.Flush()
	s.cancel()
	s.barrier()
	close(s.work)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if completed {
		s.checkpointLocked(t, true)
	} else {
		s.writeBlockLocked()
		if err := s.st.Sync(); err != nil && s.err == nil {
			s.err = err
		}
	}
	s.reconcileLocked()
	return s.err
}
