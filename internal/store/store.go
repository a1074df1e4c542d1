// Package store is the durable half of the observability stack: an
// append-only, CRC-framed segment store for telemetry events and forensics
// incidents, plus lightweight whole-sim checkpoints that make a killed or
// paused run resumable and any historical window re-openable for time-travel
// replay (DESIGN.md §8).
//
// Events are persisted as compact binary records
// (telemetry.AppendEventRecord), framed with a length prefix and a CRC-32
// trailer, in rolling segments that seal with an index sidecar once full.
// A record reads back exactly the event the canonical JSONL line would;
// JSONL is the export view of a stored stream, not its storage. Because the
// simulation is deterministic — same spec and seed mean a
// bit-identical event stream — a checkpoint does not snapshot mutable sim
// state. It records a cursor (how many events and incidents were durable)
// and a running FNV-1a hash of the durable event prefix. Resume rebuilds the
// simulation from the spec recorded in meta.json, re-runs it with the sink
// in skip mode (the first N regenerated events are hashed and compared
// against the checkpoint instead of re-appended), and the tail then lands on
// disk byte-identical to an uninterrupted run. The simulator runs thousands
// of times faster than the 50 kbit/s bus it models, so regenerating the
// prefix is cheap; what the checkpoint buys is not avoided compute but a
// truncation point that crash recovery can trust.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
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
// fast-forward span records in the event log; version 3 stores each event
// as a compact binary record instead of its JSONL line. Open still reads
// version-1 and -2 stores (window reads, digests, replay) through the JSON
// decoder, but they cannot be resumed or appended to: their checkpoints'
// prefix hashes cover different payload bytes than this build regenerates.
const FormatVersion = 3

// minReadableVersion is the oldest format Open accepts.
const minReadableVersion = 1

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
	dir   string
	meta  Meta
	codec eventCodec // reads event payloads of meta.FormatVersion

	mu        sync.Mutex
	events    *segLog
	incidents *segLog
	alerts    *segLog
	cpSeq     int
	rec       []byte // AppendEvent's record scratch

	stats Stats
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
	codec := codecFor(FormatVersion)
	events, err := newSegLog(dir, "events", meta.SegmentBytes, codec.time)
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
	return &Store{dir: dir, meta: meta, codec: codec, events: events, incidents: incidents, alerts: alerts}, nil
}

// Open reopens an existing store directory, scanning every segment,
// truncating torn tails, and leaving both logs ready to append. Stores of an
// older readable format open for reading; ResumePoint refuses them.
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
		return nil, fmt.Errorf("store: %s has format version %d, want %d to %d", dir, meta.FormatVersion, minReadableVersion, FormatVersion)
	}
	codec := codecFor(meta.FormatVersion)
	events, err := openSegLog(dir, "events", meta.SegmentBytes, codec.time)
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
	s := &Store{dir: dir, meta: meta, codec: codec, events: events, incidents: incidents, alerts: alerts}
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
// telemetry.AppendEventJSON produced), at bit time t. The store keeps the
// event's binary record, not the line, so a caller never sees the on-disk
// payload format.
func (s *Store) AppendEvent(line []byte, t int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, err := telemetry.AppendEventRecordFromJSON(s.rec[:0], line)
	if err != nil {
		return fmt.Errorf("store: event line %q: %w", line, err)
	}
	s.rec = rec
	return s.appendEventLocked(rec, t)
}

// appendRecord appends one event already encoded as its record
// (telemetry.AppendEventRecord) at bit time t: the sink's path, which hashes
// the same bytes it appends.
func (s *Store) appendRecord(rec []byte, t int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendEventLocked(rec, t)
}

// appendEventLocked appends one event record. A store of an older format is
// read-only: its event log holds JSONL lines, which records must not join.
func (s *Store) appendEventLocked(rec []byte, t int64) error {
	if s.meta.FormatVersion != FormatVersion {
		return fmt.Errorf("store: format %d store is read-only to this build (format %d)", s.meta.FormatVersion, FormatVersion)
	}
	return s.appendLocked(s.events, recEvent, rec, t, &s.stats.EventsAppended)
}

// AppendIncident frames and appends one marshalled forensics incident.
func (s *Store) AppendIncident(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(s.incidents, recIncident, payload, 0, &s.stats.IncidentsAppended)
}

// AppendAlert frames and appends one marshalled watch alert transition.
func (s *Store) AppendAlert(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(s.alerts, recAlert, payload, 0, &s.stats.AlertsAppended)
}

func (s *Store) appendLocked(l *segLog, typ byte, payload []byte, t int64, counter *int64) error {
	before := len(l.segs)
	n, err := l.append(typ, payload, t)
	if err != nil {
		return err
	}
	*counter++
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

// Sync flushes and fsyncs both logs — one group commit.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if err := s.events.sync(); err != nil {
		return err
	}
	if err := s.incidents.sync(); err != nil {
		return err
	}
	if err := s.alerts.sync(); err != nil {
		return err
	}
	s.stats.Fsyncs++
	return nil
}

// EventCount returns the number of event records in the store (durable plus
// buffered).
func (s *Store) EventCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events.count
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

// WriteCheckpoint durably records a resume point: both logs are synced first
// (a checkpoint must never reference records the disk does not hold), then
// the checkpoint file lands atomically under the next sequence number.
func (s *Store) WriteCheckpoint(cp Checkpoint) (Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cp.Events > s.events.count || cp.Incidents > s.incidents.count || cp.Alerts > s.alerts.count {
		return cp, fmt.Errorf("store: checkpoint cursor (%d ev, %d inc, %d al) beyond appended (%d ev, %d inc, %d al)",
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

// TruncateTo rewinds both logs to a checkpoint's cursors and deletes every
// checkpoint after it. This is the recovery protocol's first step: the
// durable-but-uncheckpointed tail is discarded so the resumed simulation can
// regenerate it bit-identically (DESIGN.md §8.3). No read may be in flight:
// reads run without the store lock and would see segments cut under them.
func (s *Store) TruncateTo(cp Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.events.truncate(cp.Events); err != nil {
		return err
	}
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
// using sealed-segment indexes to skip segments wholly outside the window.
// The read covers the events appended when it starts. The store lock is held
// only while the log is flushed and its segment table copied, never across
// fn, so a slow reader does not block appends. A read must not overlap
// TruncateTo, which cuts and deletes segments; recovery truncates before any
// reader exists.
//
// Payloads are decoded in the store's format (binary records since format
// 3, JSONL lines before); records outside the window are skipped on their
// time alone, undecoded.
func (s *Store) EventsInWindow(from, to int64, fn func(telemetry.NamedEvent) error) error {
	var names telemetry.NodeNames
	return s.readLog(s.events, recEvent, from, to, func(payload []byte) error {
		if t, ok := s.codec.time(payload); ok && (t < from || t > to) {
			return nil
		}
		ev, err := s.codec.decode(payload, &names)
		if err != nil {
			return err
		}
		if ev.Time < from || ev.Time > to {
			return nil
		}
		return fn(ev)
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

// Close flushes and closes the logs without sealing the active segments.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.events.close(); err != nil {
		return err
	}
	if err := s.incidents.close(); err != nil {
		return err
	}
	return s.alerts.close()
}
