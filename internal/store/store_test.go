package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"michican/internal/telemetry"
)

// appendN appends n synthetic event payloads with ascending times.
func appendN(t *testing.T, s *Store, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		payload := []byte(fmt.Sprintf(`{"t":%d,"node":"n","event":"tx_start","id":"0x0%02X"}`, i*100, i%200))
		if err := s.AppendEvent(payload, int64(i*100)); err != nil {
			t.Fatalf("AppendEvent %d: %v", i, err)
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
		appendN(t, s, 0, 10)
		span := []byte(`{"t":1000,"node":"bus","event":"ff_span","bits":64,"path":"splice"}`)
		if err := s.AppendEvent(span, 1000); err != nil {
			t.Fatal(err)
		}
		appendN(t, s, 11, 10)
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
