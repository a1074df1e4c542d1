// Package store is the durable half of the observability stack: an
// append-only, CRC-framed segment store for telemetry events and forensics
// incidents, plus lightweight whole-sim checkpoints that make a killed or
// paused run resumable and any historical window re-openable for time-travel
// replay (DESIGN.md §8).
//
// Events are persisted in blocks of up to blockEvents (telemetry.BlockEncoder),
// each framed with a length prefix and a CRC-32 trailer, in rolling segments
// that seal with an index sidecar once full. A block reads back exactly the
// events the canonical JSONL lines would; JSONL is the export view of a
// stored stream, not its storage. Because the simulation is deterministic —
// same spec and seed mean a bit-identical event stream — a checkpoint does
// not snapshot mutable sim state. It records a cursor (how many events and
// incidents were durable) and a running FNV-1a hash of the durable event
// prefix. Resume rebuilds the simulation from the spec recorded in
// meta.json, re-runs it with the sink in skip mode (the first N regenerated
// events are hashed and compared against the checkpoint instead of
// re-appended), and the tail then lands on disk byte-identical to an
// uninterrupted run. The simulator runs thousands of times faster than the
// 50 kbit/s bus it models, so regenerating the prefix is cheap; what the
// checkpoint buys is not avoided compute but a truncation point that crash
// recovery can trust.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"michican/internal/telemetry"
)

// FormatVersion stamps meta.json so a layout change can refuse or migrate
// old directories instead of misreading them. Version 2 stopped persisting
// fast-forward span records in the event log; version 3 stored each event
// as a compact binary record instead of its JSONL line; version 4 stores
// the events in blocks. Open still reads version-3 stores (window reads,
// digests, replay) through the per-record decoder, but they cannot be
// resumed or appended to: their checkpoints' cursors need not fall on the
// block boundaries a resumed format-4 log is cut at.
const FormatVersion = 4

// minReadableVersion is the oldest format Open accepts. Formats 1 and 2
// held JSONL lines; no reader for them remains.
const minReadableVersion = 3

// blockEvents is the event count at which an open event block closes. The
// block boundaries are then a function of the event stream alone: a block
// also closes when its writer closes, but never at a drain, Sync,
// checkpoint, hand-off batch or Advance slice. A sweep replaying a recorded
// 8-vehicle michican-fleet run (1.94M events of DoS, spoof and toggle
// traffic, 2-vCPU VM) through stores put the knee at 256: blocks of 64 and
// 128 events take 4.69 and 4.29 B/event against 4.08, while 512 and 1024
// save only 2.5% and 4% more and double and quadruple how far a live window
// read lags (the open block is not on disk) and how far a checkpoint trails
// its events. Writer cost (48-58 ns/event, prefix hash included) and the
// open scan (2.5-3.3 ms for the eight stores) are flat from 128 up.
const blockEvents = 256

// DefaultSegmentBytes is the segment roll threshold when Meta leaves it
// zero. Rolls cost file-metadata syscalls (seal fsync + sidecar + open), so
// the default is sized to keep them rare even at fast-forward event rates
// while still bounding the tail a window read has to scan.
const DefaultSegmentBytes = 1 << 20

// Fsync policies. The policy is recorded in meta.json (it is part of the
// store's durability contract, not a per-open mood).
const (
	// FsyncGroup fsyncs once per drain batch — the group-commit discipline
	// matching the telemetry NetCommitter's thresholded pushes.
	FsyncGroup = "group"
	// FsyncCheckpoint fsyncs only when a checkpoint is written; a crash can
	// lose the tail back to the last checkpoint, which resume regenerates.
	FsyncCheckpoint = "checkpoint"
	// FsyncNone never fsyncs explicitly (the OS flushes at its leisure).
	FsyncNone = "none"
)

// Meta is the store's immutable description, written to meta.json at Create.
// Config carries the run's own generator spec (a fleet vehicle spec, the sim
// CLI's parameters) opaque to this package; resume reads it back to rebuild
// the identical simulation.
type Meta struct {
	FormatVersion int             `json:"format_version"`
	Kind          string          `json:"kind"` // "sim", "vehicle", ...
	SegmentBytes  int64           `json:"segment_bytes"`
	Fsync         string          `json:"fsync"`
	Config        json.RawMessage `json:"config,omitempty"`
}

// Checkpoint is one durable resume point. It is a cursor plus integrity
// hashes, not a state snapshot: TimeBits records sim progress for reporting,
// while Events/Incidents say how much of each log was durable and the hashes
// pin the exact bytes of those prefixes (FNV-1a over the framed payloads in
// append order). Completed marks the final checkpoint of a run that finished
// its horizon.
type Checkpoint struct {
	Seq          int    `json:"seq"`
	TimeBits     int64  `json:"time_bits"`
	Events       int64  `json:"events"`
	Incidents    int64  `json:"incidents"`
	PrefixHash   string `json:"prefix_hash"`
	IncidentHash string `json:"incident_hash"`
	// Alerts/AlertHash cursor the watch engine's alert log the same way
	// Incidents/IncidentHash cursor the incident log. Both are JSON-additive:
	// checkpoints written before the alert log existed unmarshal to zero,
	// which is exactly the cursor of their (empty) alert log.
	Alerts    int64  `json:"alerts,omitempty"`
	AlertHash string `json:"alert_hash,omitempty"`
	Completed bool   `json:"completed"`
}

// Stats is a snapshot of the store's lifetime persistence counters (this
// process only; recovery does not reconstruct historical fsync counts).
type Stats struct {
	EventsAppended    int64   `json:"events_appended"`
	IncidentsAppended int64   `json:"incidents_appended"`
	AlertsAppended    int64   `json:"alerts_appended"`
	BytesAppended     int64   `json:"bytes_appended"`
	SegmentsSealed    int64   `json:"segments_sealed"`
	Fsyncs            int64   `json:"fsyncs"`
	Checkpoints       int64   `json:"checkpoints"`
	LastCheckpointMs  float64 `json:"last_checkpoint_ms"`
	DiskBytes         int64   `json:"disk_bytes"`
	Segments          int     `json:"segments"`
}

// Store is one durable run directory: meta.json, rolling events-NNNNNN.seg
// segments (with .idx sidecars once sealed), an incidents log, and
// checkpoint-NNNNNNNN.json files. All methods are safe for concurrent use.
type Store struct {
	dir  string
	meta Meta

	mu        sync.Mutex
	events    *segLog
	incidents *segLog
	alerts    *segLog
	cpSeq     int
	blk       eventBlock // AppendEvent's open block

	stats Stats
}

// eventBlock is an open event block with its encoding scratch. The store
// keeps one for AppendEvent and a Sink one for the stream it persists, so a
// sink takes the store lock once per block, not once per event. Either
// writes its block, through appendBlock, when it holds blockEvents events
// and when it closes.
type eventBlock struct {
	enc telemetry.BlockEncoder
	buf []byte
}

// full reports whether the block holds blockEvents events.
func (b *eventBlock) full() bool { return b.enc.Len() == blockEvents }

// eventSpanOf returns what one event record of format v holds: in format 3
// one event, its time the record's leading varint; in format 4 one block,
// counted and bounded by its header.
func eventSpanOf(v int) func(typ byte, payload []byte) (recSpan, error) {
	if v == 3 {
		return func(typ byte, p []byte) (recSpan, error) {
			t, n := binary.Varint(p)
			if typ != recEvent || n <= 0 {
				return recSpan{}, errors.New("not a format-3 event record")
			}
			return recSpan{n: 1, minT: t, maxT: t, timed: true}, nil
		}
	}
	return func(typ byte, p []byte) (recSpan, error) {
		if typ != recEventBlock {
			return recSpan{}, fmt.Errorf("record type %d in a format-%d event log", typ, v)
		}
		h, err := telemetry.ParseBlockHeader(p)
		if err != nil {
			return recSpan{}, err
		}
		return recSpan{n: int64(h.Events), minT: h.MinT, maxT: h.MaxT, timed: true}, nil
	}
}

// Create initialises a new store directory. The directory must not already
// contain a store (a meta.json). Zero Meta fields get defaults; Config is
// stored verbatim.
func Create(dir string, meta Meta) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	metaPath := filepath.Join(dir, "meta.json")
	if _, err := os.Stat(metaPath); err == nil {
		return nil, fmt.Errorf("store: %s already holds a store (meta.json exists)", dir)
	}
	meta.FormatVersion = FormatVersion
	if meta.SegmentBytes == 0 {
		meta.SegmentBytes = DefaultSegmentBytes
	}
	if meta.Fsync == "" {
		meta.Fsync = FsyncGroup
	}
	switch meta.Fsync {
	case FsyncGroup, FsyncCheckpoint, FsyncNone:
	default:
		return nil, fmt.Errorf("store: unknown fsync policy %q", meta.Fsync)
	}
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(metaPath, append(data, '\n')); err != nil {
		return nil, err
	}
	events, err := newSegLog(dir, "events", meta.SegmentBytes, eventSpanOf(FormatVersion))
	if err != nil {
		return nil, err
	}
	incidents, err := newSegLog(dir, "incidents", meta.SegmentBytes, nil)
	if err != nil {
		return nil, err
	}
	alerts, err := newSegLog(dir, "alerts", meta.SegmentBytes, nil)
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, meta: meta, events: events, incidents: incidents, alerts: alerts}, nil
}

// Open reopens an existing store directory, scanning every segment — one
// CRC and one header per event block, no event decoded — truncating torn
// tails back to the last whole record, and leaving the logs ready to
// append. Stores of an older readable format open for reading;
// ResumePoint refuses them.
func Open(dir string) (*Store, error) {
	data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, fmt.Errorf("store: %s is not a store: %w", dir, err)
	}
	var meta Meta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, fmt.Errorf("store: corrupt meta.json in %s: %w", dir, err)
	}
	if meta.FormatVersion < minReadableVersion || meta.FormatVersion > FormatVersion {
		return nil, fmt.Errorf("store: %s has format version %d; this build reads formats %d to %d", dir, meta.FormatVersion, minReadableVersion, FormatVersion)
	}
	events, err := openSegLog(dir, "events", meta.SegmentBytes, eventSpanOf(meta.FormatVersion))
	if err != nil {
		return nil, err
	}
	incidents, err := openSegLog(dir, "incidents", meta.SegmentBytes, nil)
	if err != nil {
		return nil, err
	}
	// Stores created before the alert log existed simply have no alerts-*.seg
	// files; openSegLog starts them a fresh, empty log.
	alerts, err := openSegLog(dir, "alerts", meta.SegmentBytes, nil)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, meta: meta, events: events, incidents: incidents, alerts: alerts}
	cps, err := s.Checkpoints()
	if err != nil {
		return nil, err
	}
	if len(cps) > 0 {
		s.cpSeq = cps[len(cps)-1].Seq
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Meta returns the store's immutable description.
func (s *Store) Meta() Meta { return s.meta }

// AppendEvent appends one event, given as its JSONL line (the bytes
// telemetry.AppendEventJSON produced), at bit time t, the time the line
// carries. The store keeps the event in its open block, not the line, so a
// caller never sees the on-disk payload format; the block reaches the log
// when it fills or the store closes.
func (s *Store) AppendEvent(line []byte, t int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	if err := s.blk.enc.AppendJSON(line); err != nil {
		return fmt.Errorf("store: event line %q: %w", line, err)
	}
	if !s.blk.full() {
		return nil
	}
	return s.writeBlockLocked(&s.blk)
}

// appendBlock writes a sink's block (writeBlockLocked) and returns how many
// events the log holds, all in whole blocks: the furthest a checkpoint may
// reach.
func (s *Store) appendBlock(b *eventBlock) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.writeBlockLocked(b)
	return s.events.count, err
}

// writableLocked refuses appends to a store of an older format, which is
// read-only: blocks must not join its per-event records.
func (s *Store) writableLocked() error {
	if s.meta.FormatVersion != FormatVersion {
		return fmt.Errorf("store: format %d store is read-only to this build (format %d)", s.meta.FormatVersion, FormatVersion)
	}
	return nil
}

// writeBlockLocked frames b, if it holds any event, as one record of the
// event log and empties it.
func (s *Store) writeBlockLocked(b *eventBlock) error {
	h := b.enc.Header()
	if h.Events == 0 {
		return nil
	}
	if err := s.writableLocked(); err != nil {
		return err
	}
	b.buf = b.enc.AppendBlock(b.buf[:0])
	b.enc.Reset()
	if err := s.appendLocked(s.events, recEventBlock, b.buf, recSpan{n: int64(h.Events), minT: h.MinT, maxT: h.MaxT, timed: true}); err != nil {
		return err
	}
	s.stats.EventsAppended += int64(h.Events)
	return nil
}

// AppendIncident frames and appends one marshalled forensics incident.
func (s *Store) AppendIncident(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendLocked(s.incidents, recIncident, payload, recSpan{n: 1}); err != nil {
		return err
	}
	s.stats.IncidentsAppended++
	return nil
}

// AppendAlert frames and appends one marshalled watch alert transition.
func (s *Store) AppendAlert(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendLocked(s.alerts, recAlert, payload, recSpan{n: 1}); err != nil {
		return err
	}
	s.stats.AlertsAppended++
	return nil
}

func (s *Store) appendLocked(l *segLog, typ byte, payload []byte, sp recSpan) error {
	before := len(l.segs)
	n, err := l.append(typ, payload, sp)
	if err != nil {
		return err
	}
	s.stats.BytesAppended += n
	s.stats.SegmentsSealed += int64(len(l.segs) - before)
	return nil
}

// Flush pushes buffered appends to the OS without fsyncing.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.events.flush(); err != nil {
		return err
	}
	if err := s.incidents.flush(); err != nil {
		return err
	}
	return s.alerts.flush()
}

// Sync flushes and fsyncs every log holding appends not yet fsynced — one
// group commit. The open event block is not a record yet and stays in
// memory.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	synced := false
	for _, l := range []*segLog{s.events, s.incidents, s.alerts} {
		did, err := l.sync()
		if err != nil {
			return err
		}
		synced = synced || did
	}
	if synced {
		s.stats.Fsyncs++
	}
	return nil
}

// EventCount returns the number of events in the store: durable, buffered,
// and in AppendEvent's open block. A sink's open block is the sink's until
// it fills or the sink closes.
func (s *Store) EventCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events.count + int64(s.blk.enc.Len())
}

// IncidentCount returns the number of incident records in the store.
func (s *Store) IncidentCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.incidents.count
}

// AlertCount returns the number of alert records in the store.
func (s *Store) AlertCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alerts.count
}

// Stats snapshots the persistence counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.DiskBytes = s.events.diskBytes() + s.incidents.diskBytes() + s.alerts.diskBytes()
	st.Segments = len(s.events.segs) + len(s.incidents.segs) + len(s.alerts.segs)
	return st
}

// WriteCheckpoint durably records a resume point: the logs are synced first
// (a checkpoint must never reference records the disk does not hold), then
// the checkpoint file lands atomically under the next sequence number. The
// events cursor may reach only whole blocks: the open block is not on disk.
func (s *Store) WriteCheckpoint(cp Checkpoint) (Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cp.Events > s.events.count || cp.Incidents > s.incidents.count || cp.Alerts > s.alerts.count {
		return cp, fmt.Errorf("store: checkpoint cursor (%d ev, %d inc, %d al) beyond the records appended (%d ev in whole blocks, %d inc, %d al)",
			cp.Events, cp.Incidents, cp.Alerts, s.events.count, s.incidents.count, s.alerts.count)
	}
	if err := s.syncLocked(); err != nil {
		return cp, err
	}
	s.cpSeq++
	cp.Seq = s.cpSeq
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return cp, err
	}
	path := filepath.Join(s.dir, fmt.Sprintf("checkpoint-%08d.json", cp.Seq))
	if err := writeFileAtomic(path, append(data, '\n')); err != nil {
		return cp, err
	}
	s.stats.Checkpoints++
	return cp, nil
}

// noteCheckpointMs records the last checkpoint's wall cost for Stats.
func (s *Store) noteCheckpointMs(ms float64) {
	s.mu.Lock()
	s.stats.LastCheckpointMs = ms
	s.mu.Unlock()
}

// Checkpoints returns every readable checkpoint in ascending sequence order.
// Unreadable or torn checkpoint files are skipped, not fatal: writeFileAtomic
// means they can only be stray tmp leftovers or external damage, and recovery
// just falls back to an older point.
func (s *Store) Checkpoints() ([]Checkpoint, error) {
	names, err := filepath.Glob(filepath.Join(s.dir, "checkpoint-*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	out := make([]Checkpoint, 0, len(names))
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			continue
		}
		data, err := os.ReadFile(n)
		if err != nil {
			continue
		}
		var cp Checkpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			continue
		}
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// ErrNoCheckpoint reports a store with no usable resume point.
var ErrNoCheckpoint = errors.New("store: no usable checkpoint")

// LatestCheckpoint returns the newest checkpoint whose cursors are covered
// by the records actually on disk (a crash between appends and checkpointing
// cannot produce one, but external tampering or a lost+found restore could;
// recovery then falls back to the newest still-covered point).
func (s *Store) LatestCheckpoint() (Checkpoint, error) {
	cps, err := s.Checkpoints()
	if err != nil {
		return Checkpoint{}, err
	}
	s.mu.Lock()
	evCount, incCount, alCount := s.events.count, s.incidents.count, s.alerts.count
	s.mu.Unlock()
	for i := len(cps) - 1; i >= 0; i-- {
		if cps[i].Events <= evCount && cps[i].Incidents <= incCount && cps[i].Alerts <= alCount {
			return cps[i], nil
		}
	}
	return Checkpoint{}, ErrNoCheckpoint
}

// TruncateTo rewinds the logs to a checkpoint's cursors and deletes every
// checkpoint after it. This is the recovery protocol's first step: the
// durable-but-uncheckpointed tail is discarded so the resumed simulation can
// regenerate it bit-identically (DESIGN.md §8.3). An events cursor inside a
// block is refused before anything is cut. No read may be in flight: reads
// run without the store lock and would see segments cut under them.
func (s *Store) TruncateTo(cp Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.events.truncate(cp.Events); err != nil {
		return err
	}
	s.blk.enc.Reset()
	if err := s.incidents.truncate(cp.Incidents); err != nil {
		return err
	}
	if err := s.alerts.truncate(cp.Alerts); err != nil {
		return err
	}
	names, err := filepath.Glob(filepath.Join(s.dir, "checkpoint-*.json"))
	if err != nil {
		return err
	}
	for _, n := range names {
		base := filepath.Base(n)
		num := strings.TrimSuffix(strings.TrimPrefix(base, "checkpoint-"), ".json")
		seq, err := strconv.Atoi(num)
		if err != nil {
			continue
		}
		if seq > cp.Seq {
			os.Remove(n)
		}
	}
	s.cpSeq = cp.Seq
	return nil
}

// Events streams every stored event in append order (which is canonical
// order: the sink sequences before appending).
func (s *Store) Events(fn func(telemetry.NamedEvent) error) error {
	return s.EventsInWindow(math.MinInt64, math.MaxInt64, fn)
}

// EventsInWindow streams stored events whose bit time lies in [from, to],
// skipping segments, and blocks within a segment, whose time bounds lie
// wholly outside the window. The read covers the records on disk when it
// starts: the open block, under blockEvents events, is not yet among them.
// The store lock is held only while the log is flushed and its segment table
// copied, never across fn, so a slow reader does not block appends. A read
// must not overlap TruncateTo, which cuts and deletes segments; recovery
// truncates before any reader exists.
//
// Blocks decode without allocating per event; a format-3 store's records
// decode one by one through telemetry.ParseEventRecord.
func (s *Store) EventsInWindow(from, to int64, fn func(telemetry.NamedEvent) error) error {
	emit := func(ev telemetry.NamedEvent) error {
		if ev.Time < from || ev.Time > to {
			return nil
		}
		return fn(ev)
	}
	if s.meta.FormatVersion == 3 {
		var names telemetry.NodeNames
		return s.readLog(s.events, recEvent, from, to, func(payload []byte) error {
			ev, err := telemetry.ParseEventRecord(payload, &names)
			if err != nil {
				return err
			}
			return emit(ev)
		})
	}
	var dec telemetry.BlockDecoder
	return s.readLog(s.events, recEventBlock, from, to, func(payload []byte) error {
		if _, err := dec.Reset(payload); err != nil {
			return err
		}
		for {
			ev, err := dec.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := emit(ev); err != nil {
				return err
			}
		}
	})
}

// IncidentPayloads streams every stored incident's raw JSON payload in
// append order. Decoding lives in the forensics package (which owns the
// Incident type); this keeps store → forensics dependency-free.
func (s *Store) IncidentPayloads(fn func(payload []byte) error) error {
	return s.readLog(s.incidents, recIncident, math.MinInt64, math.MaxInt64, fn)
}

// AlertPayloads streams every stored alert transition's raw JSON payload in
// append order. Decoding lives in the watch package (which owns the Alert
// type); this keeps store → watch dependency-free.
func (s *Store) AlertPayloads(fn func(payload []byte) error) error {
	return s.readLog(s.alerts, recAlert, math.MinInt64, math.MaxInt64, fn)
}

// readLog streams the payloads of log l's records, all of type typ, that
// lie in segments overlapping [from, to]. Only the snapshot is taken under
// the store lock; the records are read and handed to fn without it.
func (s *Store) readLog(l *segLog, typ byte, from, to int64, fn func(payload []byte) error) error {
	s.mu.Lock()
	segs, err := l.snapshot()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return l.readSegments(segs, from, to, func(t byte, payload []byte) error {
		if t != typ {
			return fmt.Errorf("store: record type %d in %s log", t, l.prefix)
		}
		return fn(payload)
	})
}

// Close writes AppendEvent's open block, then flushes and closes the logs
// without sealing the active segments.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeBlockLocked(&s.blk); err != nil {
		return err
	}
	if err := s.events.close(); err != nil {
		return err
	}
	if err := s.incidents.close(); err != nil {
		return err
	}
	return s.alerts.close()
}
