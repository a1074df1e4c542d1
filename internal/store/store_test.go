package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"michican/internal/telemetry"
)

// syntheticEvent is the i-th event appendN writes.
func syntheticEvent(i int) telemetry.Event {
	return telemetry.Event{Time: int64(i * 100), Kind: telemetry.EvTxStart, A: int64(i % 200)}
}

// appendN appends n synthetic events with ascending times.
func appendN(t *testing.T, s *Store, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		ev := syntheticEvent(i)
		if err := s.AppendEvent(telemetry.AppendEventJSON(nil, "n", ev), ev.Time); err != nil {
			t.Fatalf("AppendEvent %d: %v", i, err)
		}
	}
}

// appendJSON appends the same events as appendN with their JSONL lines as
// the stored payloads, the event log of a format-1 or format-2 store.
func appendJSON(t *testing.T, s *Store, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		ev := syntheticEvent(i)
		if err := s.appendRecord(telemetry.AppendEventJSON(nil, "n", ev), ev.Time); err != nil {
			t.Fatalf("appendRecord %d: %v", i, err)
		}
	}
}

func collectTimes(t *testing.T, s *Store, from, to int64) []int64 {
	t.Helper()
	var times []int64
	err := s.EventsInWindow(from, to, func(ev telemetry.NamedEvent) error {
		times = append(times, ev.Time)
		return nil
	})
	if err != nil {
		t.Fatalf("EventsInWindow: %v", err)
	}
	return times
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Meta{Kind: "test"})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 250)
	if err := s.AppendIncident([]byte(`{"id":"0x123","start":5}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.EventCount(); got != 250 {
		t.Fatalf("EventCount after reopen = %d, want 250", got)
	}
	if got := s2.IncidentCount(); got != 1 {
		t.Fatalf("IncidentCount after reopen = %d, want 1", got)
	}
	times := collectTimes(t, s2, 0, 1<<62)
	if len(times) != 250 || times[0] != 0 || times[249] != 24900 {
		t.Fatalf("event replay wrong: len=%d first=%v last=%v", len(times), times[0], times[len(times)-1])
	}
	var incs int
	if err := s2.IncidentPayloads(func(p []byte) error { incs++; return nil }); err != nil {
		t.Fatal(err)
	}
	if incs != 1 {
		t.Fatalf("incident replay count = %d, want 1", incs)
	}
	// Appends continue after reopen.
	appendN(t, s2, 250, 10)
	if got := s2.EventCount(); got != 260 {
		t.Fatalf("EventCount after post-reopen appends = %d, want 260", got)
	}
}

// TestAppendEventStoresRecord checks that AppendEvent keeps a JSONL line's
// binary record, which reads back as the line's event, and refuses a line
// that is not an event without appending anything.
func TestAppendEventStoresRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Meta{Kind: "test"})
	if err != nil {
		t.Fatal(err)
	}
	ev := telemetry.Event{Time: 1042, Kind: telemetry.EvError, A: 2, B: 7}
	line := telemetry.AppendEventJSON(nil, "restbus", ev)
	if err := s.AppendEvent(line, ev.Time); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvent([]byte(`{"t":1,"node":"n","event":"no_such_kind"}`), 1); err == nil {
		t.Fatal("AppendEvent accepted a line of an unknown event")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName("events", 1)))
	if err != nil {
		t.Fatal(err)
	}
	want := telemetry.AppendEventRecord(nil, "restbus", ev)
	if len(seg) != recHeaderLen+len(want)+recTrailerLen || !bytes.Equal(seg[recHeaderLen:len(seg)-recTrailerLen], want) {
		t.Fatalf("event segment %x, want the one record %x", seg, want)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	all, _ := readAll(t, s2, 0, 0)
	if wantEv, _ := telemetry.ParseEventJSON(line); len(all) != 1 || all[0] != wantEv {
		t.Fatalf("read back %+v, want [%+v]", all, wantEv)
	}
}

func TestSegmentRollSealAndWindowSkip(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rolls.
	s, err := Create(dir, Meta{Kind: "test", SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 200)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SegmentsSealed < 5 {
		t.Fatalf("expected many sealed segments with 512-byte rolls, got %d", st.SegmentsSealed)
	}
	idx, _ := filepath.Glob(filepath.Join(dir, "events-*.idx"))
	if int64(len(idx)) != st.SegmentsSealed {
		t.Fatalf("idx sidecars = %d, sealed = %d", len(idx), st.SegmentsSealed)
	}
	// A narrow window returns exactly the in-range events, in order.
	times := collectTimes(t, s, 5000, 7000)
	if len(times) != 21 || times[0] != 5000 || times[20] != 7000 {
		t.Fatalf("window [5000,7000]: len=%d bounds=%v..%v", len(times), times[0], times[len(times)-1])
	}
	s.Close()
}

func TestLayoutIndependentOfFlushCadence(t *testing.T) {
	// The on-disk segment layout must be a pure function of the record
	// stream: per-record roll decisions, never flush-batch ones. Two stores
	// fed identically but flushed at wildly different cadences must be
	// byte-identical.
	dirA, dirB := t.TempDir(), t.TempDir()
	a, err := Create(dirA, Meta{Kind: "test", SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Create(dirB, Meta{Kind: "test", SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		payload := []byte(fmt.Sprintf(`{"t":%d,"node":"n","event":"tx_start","id":"0x0%02X"}`, i*100, i%200))
		if err := a.AppendEvent(payload, int64(i*100)); err != nil {
			t.Fatal(err)
		}
		if err := b.AppendEvent(payload, int64(i*100)); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			if err := a.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	a.Close()
	b.Close()
	assertSameSegments(t, dirA, dirB)
}

// assertSameSegments compares the .seg files of two store dirs byte for byte.
func assertSameSegments(t *testing.T, dirA, dirB string) {
	t.Helper()
	segsA, _ := filepath.Glob(filepath.Join(dirA, "*.seg"))
	segsB, _ := filepath.Glob(filepath.Join(dirB, "*.seg"))
	if len(segsA) != len(segsB) {
		t.Fatalf("segment count differs: %d vs %d", len(segsA), len(segsB))
	}
	for i := range segsA {
		da, err := os.ReadFile(segsA[i])
		if err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(segsB[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Fatalf("%s differs from %s (%d vs %d bytes)", segsA[i], segsB[i], len(da), len(db))
		}
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Meta{Kind: "test"})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 50)
	s.Close()

	// Tear the tail: chop the last 7 bytes of the active segment, splitting
	// the final record's CRC trailer as a crash mid-write would.
	seg := filepath.Join(dir, "events-000001.seg")
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	defer s2.Close()
	if got := s2.EventCount(); got != 49 {
		t.Fatalf("EventCount after torn-tail recovery = %d, want 49", got)
	}
	// The log accepts appends again and replays cleanly.
	appendN(t, s2, 49, 1)
	times := collectTimes(t, s2, 0, 1<<62)
	if len(times) != 50 {
		t.Fatalf("replay after recovery = %d events, want 50", len(times))
	}
}

func TestCorruptRecordTruncatesAndDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Meta{Kind: "test", SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 200)
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "events-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments for this test, got %d", len(segs))
	}
	// Flip a payload byte mid-way through the second segment.
	victim := segs[1]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("open after corruption: %v", err)
	}
	defer s2.Close()
	// Everything from the corrupt record onward is gone; the valid prefix
	// survives and the count matches a full replay.
	times := collectTimes(t, s2, 0, 1<<62)
	if int64(len(times)) != s2.EventCount() {
		t.Fatalf("replay %d != count %d", len(times), s2.EventCount())
	}
	if len(times) == 0 || len(times) >= 200 {
		t.Fatalf("corruption should cost some but not all records, kept %d", len(times))
	}
	left, _ := filepath.Glob(filepath.Join(dir, "events-*.seg"))
	if len(left) != 2 {
		t.Fatalf("later segments should be dropped, %d files remain", len(left))
	}
}

func TestCheckpointTruncateResumePoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Meta{Kind: "test", SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 120)
	cp, err := s.WriteCheckpoint(Checkpoint{TimeBits: 11900, Events: 120, Incidents: 0, PrefixHash: "abc"})
	if err != nil {
		t.Fatal(err)
	}
	if cp.Seq != 1 {
		t.Fatalf("first checkpoint seq = %d", cp.Seq)
	}
	// A durable-but-uncheckpointed tail follows.
	appendN(t, s, 120, 80)
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if got.Events != 120 || got.PrefixHash != "abc" {
		t.Fatalf("LatestCheckpoint = %+v", got)
	}
	if err := s2.TruncateTo(got); err != nil {
		t.Fatal(err)
	}
	if n := s2.EventCount(); n != 120 {
		t.Fatalf("EventCount after TruncateTo = %d, want 120", n)
	}
	// Re-appending the same tail reproduces the same layout as a run that
	// never had the extra records truncated.
	appendN(t, s2, 120, 80)
	s2.Close()

	ref, err := Create(t.TempDir(), Meta{Kind: "test", SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, ref, 0, 200)
	ref.Close()
	assertSameSegments(t, dir, ref.Dir())
}

func TestCheckpointBeyondAppendedRejected(t *testing.T) {
	s, err := Create(t.TempDir(), Meta{Kind: "test"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, 0, 5)
	if _, err := s.WriteCheckpoint(Checkpoint{Events: 6}); err == nil {
		t.Fatal("checkpoint with cursor beyond appended records must be rejected")
	}
}

func TestCreateRefusesExistingStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Meta{Kind: "test"})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Create(dir, Meta{Kind: "test"}); err == nil {
		t.Fatal("Create over an existing store must fail")
	}
}

func TestAppendEventAllocatesNothing(t *testing.T) {
	s, err := Create(t.TempDir(), Meta{Kind: "test"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := []byte(`{"t":1000,"node":"restbus","event":"tx_success","id":"0x173"}`)
	appendN(t, s, 0, 100)
	if got := testing.AllocsPerRun(1000, func() {
		if err := s.AppendEvent(payload, 1000); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("AppendEvent allocates %v times per record, want 0", got)
	}
}

// setFormatVersion rewrites a store's meta.json as if an older or newer
// build had created it.
func setFormatVersion(t *testing.T, dir string, v int) {
	t.Helper()
	path := filepath.Join(dir, "meta.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := []byte(fmt.Sprintf(`"format_version": %d`, FormatVersion))
	if !bytes.Contains(data, old) {
		t.Fatalf("meta.json lacks %s:\n%s", old, data)
	}
	if err := os.WriteFile(path, bytes.Replace(data, old, []byte(fmt.Sprintf(`"format_version": %d`, v)), 1), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFormatVersion1ReadableNotResumable builds a version-1 store (one whose
// event log holds fast-forward span records) and checks that this build
// reads it for window reads and replay, reports a finished one as complete,
// and refuses to resume an unfinished one with a clear error.
func TestFormatVersion1ReadableNotResumable(t *testing.T) {
	for _, completed := range []bool{false, true} {
		dir := t.TempDir()
		s, err := Create(dir, Meta{Kind: "test"})
		if err != nil {
			t.Fatal(err)
		}
		appendJSON(t, s, 0, 10)
		span := []byte(`{"t":1000,"node":"bus","event":"ff_span","bits":64,"path":"splice"}`)
		if err := s.appendRecord(span, 1000); err != nil {
			t.Fatal(err)
		}
		appendJSON(t, s, 11, 10)
		if _, err := s.WriteCheckpoint(Checkpoint{TimeBits: 1500, Events: 15, Completed: completed}); err != nil {
			t.Fatal(err)
		}
		s.Close()
		setFormatVersion(t, dir, 1)

		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("Open of a format-1 store: %v", err)
		}
		var kinds []telemetry.Kind
		if err := s2.EventsInWindow(900, 1100, func(ev telemetry.NamedEvent) error {
			kinds = append(kinds, ev.Kind)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(kinds) != 3 || kinds[1] != telemetry.EvFFSpan {
			t.Fatalf("format-1 window read = %v, want tx_start, ff_span, tx_start", kinds)
		}
		_, done, err := s2.ResumePoint()
		switch {
		case completed && (err != nil || !done):
			t.Fatalf("completed format-1 store: ResumePoint = done %v, err %v; want complete", done, err)
		case !completed && (err == nil || !strings.Contains(err.Error(), "format 1 store cannot be resumed by this build")):
			t.Fatalf("unfinished format-1 store: ResumePoint err = %v, want a format error", err)
		}
		if n := s2.EventCount(); n != 21 {
			t.Fatalf("refused resume touched the store: %d events, want 21", n)
		}
		s2.Close()
	}

	dir := t.TempDir()
	s, err := Create(dir, Meta{Kind: "test"})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	setFormatVersion(t, dir, FormatVersion+1)
	if _, err := Open(dir); err == nil {
		t.Fatal("Open of a store from a newer format must fail")
	}
}

// readAll returns every event of s, and the events of the
// window [from, to].
func readAll(t *testing.T, s *Store, from, to int64) (all, window []telemetry.NamedEvent) {
	t.Helper()
	if err := s.Events(func(ev telemetry.NamedEvent) error {
		all = append(all, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.EventsInWindow(from, to, func(ev telemetry.NamedEvent) error {
		window = append(window, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return all, window
}

// TestFormatVersion2ReadableNotResumable writes the same stream as a
// format-2 store (JSONL payloads) and as a format-3 store (binary records),
// checks that both read back the same events in full and in a window that
// segment bounds must narrow, and that an unfinished format-2 store refuses
// to resume before anything is truncated.
func TestFormatVersion2ReadableNotResumable(t *testing.T) {
	const n = 300
	build := func(appendFn func(*testing.T, *Store, int, int)) string {
		dir := t.TempDir()
		s, err := Create(dir, Meta{Kind: "test", SegmentBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		appendFn(t, s, 0, n/2)
		if _, err := s.WriteCheckpoint(Checkpoint{TimeBits: 100 * n / 2, Events: n / 2}); err != nil {
			t.Fatal(err)
		}
		appendFn(t, s, n/2, n/2)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	v2Dir, v3Dir := build(appendJSON), build(appendN)
	setFormatVersion(t, v2Dir, 2)

	v3, err := Open(v3Dir)
	if err != nil {
		t.Fatal(err)
	}
	defer v3.Close()
	v2, err := Open(v2Dir)
	if err != nil {
		t.Fatalf("Open of a format-2 store: %v", err)
	}
	defer v2.Close()
	if segs := len(v2.events.segs); segs < 3 {
		t.Fatalf("format-2 store has %d segments, want several for the window to skip", segs)
	}
	for _, seg := range v2.events.segs {
		if seg.firstT < 0 || seg.lastT < seg.firstT {
			t.Fatalf("format-2 segment %d has time bounds [%d, %d]; the JSON times were not read", seg.seq, seg.firstT, seg.lastT)
		}
	}
	wantAll, wantWin := readAll(t, v3, 12_000, 14_000)
	gotAll, gotWin := readAll(t, v2, 12_000, 14_000)
	if len(wantAll) != n || len(wantWin) != 21 {
		t.Fatalf("format-3 read-back: %d events, window %d; want %d and 21", len(wantAll), len(wantWin), n)
	}
	if !slices.Equal(gotAll, wantAll) || !slices.Equal(gotWin, wantWin) {
		t.Fatalf("format-2 read-back differs from format 3:\n%v\n%v", gotWin, wantWin)
	}

	if err := v2.AppendEvent(telemetry.AppendEventJSON(nil, "n", syntheticEvent(n)), 100*n); err == nil {
		t.Fatal("AppendEvent on a format-2 store must fail: records would join its JSONL lines")
	}

	before := segmentBytes(t, v2Dir)
	_, _, err = v2.ResumePoint()
	if err == nil || !strings.Contains(err.Error(), "format 2 store cannot be resumed by this build (format 3)") {
		t.Fatalf("unfinished format-2 store: ResumePoint err = %v, want a format error", err)
	}
	if c := v2.EventCount(); c != n {
		t.Fatalf("refused resume touched the store: %d events, want %d", c, n)
	}
	if after := segmentBytes(t, v2Dir); !slices.Equal(after, before) {
		t.Fatalf("refused resume changed segment sizes: %v, was %v", after, before)
	}
}

// segmentBytes lists the sizes of a store's event segments.
func segmentBytes(t *testing.T, dir string) []int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "events-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fi.Size())
	}
	return sizes
}

// TestWindowReadDoesNotBlockAppends checks that a window read's callback runs
// without the store lock: an append and flush issued from inside it must
// return while the callback still waits on them. The read itself covers the
// events present when it started.
func TestWindowReadDoesNotBlockAppends(t *testing.T) {
	s, err := Create(t.TempDir(), Meta{Kind: "test"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, 0, 10)
	read := 0
	err = s.EventsInWindow(0, 1<<62, func(ev telemetry.NamedEvent) error {
		read++
		if ev.Time != 0 {
			return nil
		}
		done := make(chan error, 1)
		go func() {
			ev := syntheticEvent(10)
			err := s.AppendEvent(telemetry.AppendEventJSON(nil, "n", ev), ev.Time)
			if err == nil {
				err = s.Flush()
			}
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			return errors.New("AppendEvent blocked behind a window read's callback")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if read != 10 {
		t.Fatalf("window read delivered %d events, want the 10 present when it started", read)
	}
	if times := collectTimes(t, s, 0, 1<<62); len(times) != 11 {
		t.Fatalf("after the concurrent append the store reads %d events, want 11", len(times))
	}
}
