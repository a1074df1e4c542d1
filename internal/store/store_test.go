package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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

// appendRecords appends the same events as appendN as one format-3 record
// each, the event log of a format-3 store.
func appendRecords(t *testing.T, s *Store, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		ev := syntheticEvent(i)
		rec := telemetry.AppendEventRecord(nil, "n", ev)
		if err := s.appendLocked(s.events, recEvent, rec, recSpan{n: 1, minT: ev.Time, maxT: ev.Time, timed: true}); err != nil {
			t.Fatalf("append record %d: %v", i, err)
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
// event in the open block, which Close writes as the event log's one
// record, a block that reads back as the line's event; and that it refuses
// a line that is not an event without appending anything.
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
	var blk telemetry.BlockEncoder
	blk.Append("restbus", ev)
	want := blk.AppendBlock(nil)
	if len(seg) != recHeaderLen+len(want)+recTrailerLen || seg[4] != recEventBlock || !bytes.Equal(seg[recHeaderLen:len(seg)-recTrailerLen], want) {
		t.Fatalf("event segment %x, want the one block %x", seg, want)
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
	s, err := Create(dir, Meta{Kind: "test", SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 20*blockEvents)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SegmentsSealed < 5 {
		t.Fatalf("expected many sealed segments with 2048-byte rolls, got %d", st.SegmentsSealed)
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
	for i := 0; i < 3*blockEvents+17; i++ {
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
	whole := 2 * blockEvents
	appendN(t, s, 0, whole+50)
	s.Close()

	// Tear the tail: chop the last 7 bytes of the active segment, splitting
	// the final record's CRC trailer as a crash mid-write would. That record
	// is the 50-event block Close wrote, so all 50 are lost.
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
	if got := s2.EventCount(); got != int64(whole) {
		t.Fatalf("EventCount after torn-tail recovery = %d, want %d", got, whole)
	}
	// The log accepts appends again and replays cleanly.
	appendN(t, s2, whole, blockEvents)
	times := collectTimes(t, s2, 0, 1<<62)
	if len(times) != whole+blockEvents {
		t.Fatalf("replay after recovery = %d events, want %d", len(times), whole+blockEvents)
	}
}

func TestCorruptRecordTruncatesAndDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Meta{Kind: "test", SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 8*blockEvents)
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
	if len(times) == 0 || len(times) >= 8*blockEvents {
		t.Fatalf("corruption should cost some but not all records, kept %d", len(times))
	}
	left, _ := filepath.Glob(filepath.Join(dir, "events-*.seg"))
	if len(left) != 2 {
		t.Fatalf("later segments should be dropped, %d files remain", len(left))
	}
}

func TestCheckpointTruncateResumePoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Meta{Kind: "test", SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	cut := 3 * blockEvents
	appendN(t, s, 0, cut+40)
	// The open block's 40 events are not on disk, so a checkpoint may not
	// reach them.
	if _, err := s.WriteCheckpoint(Checkpoint{Events: int64(cut + 40)}); err == nil {
		t.Fatal("a checkpoint reached into the open block")
	}
	cp, err := s.WriteCheckpoint(Checkpoint{TimeBits: int64(cut-1) * 100, Events: int64(cut), PrefixHash: "abc"})
	if err != nil {
		t.Fatal(err)
	}
	if cp.Seq != 1 {
		t.Fatalf("first checkpoint seq = %d", cp.Seq)
	}
	// A durable-but-uncheckpointed tail follows.
	appendN(t, s, cut+40, 2*blockEvents)
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
	if got.Events != int64(cut) || got.PrefixHash != "abc" {
		t.Fatalf("LatestCheckpoint = %+v", got)
	}
	// A cursor inside a block is refused before anything is cut.
	before := segmentBytes(t, dir)
	if err := s2.TruncateTo(Checkpoint{Events: int64(cut - 1)}); err == nil || !strings.Contains(err.Error(), "inside a record") {
		t.Fatalf("TruncateTo inside a block: err = %v", err)
	}
	if after := segmentBytes(t, dir); !slices.Equal(after, before) || s2.EventCount() != int64(cut+40+2*blockEvents) {
		t.Fatalf("refused truncation changed the log: sizes %v, was %v; %d events", after, before, s2.EventCount())
	}
	if err := s2.TruncateTo(got); err != nil {
		t.Fatal(err)
	}
	if n := s2.EventCount(); n != int64(cut) {
		t.Fatalf("EventCount after TruncateTo = %d, want %d", n, cut)
	}
	// Re-appending the same tail reproduces the same layout as a run that
	// never had the extra records truncated.
	appendN(t, s2, cut, 40+2*blockEvents)
	s2.Close()

	ref, err := Create(t.TempDir(), Meta{Kind: "test", SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, ref, 0, cut+40+2*blockEvents)
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

// TestOpenRefusesFormats1And2 checks that a store of format 1 or 2, whose
// event log held JSONL lines, is refused at Open with the formats this build
// reads, as is one of a newer format.
func TestOpenRefusesFormats1And2(t *testing.T) {
	for _, v := range []int{1, 2, FormatVersion + 1} {
		dir := t.TempDir()
		s, err := Create(dir, Meta{Kind: "test"})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, s, 0, 10)
		s.Close()
		setFormatVersion(t, dir, v)
		want := fmt.Sprintf("has format version %d; this build reads formats 3 to %d", v, FormatVersion)
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Open of a format-%d store: err = %v, want %q", v, err, want)
		}
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

// TestFormatVersion3ReadableNotResumable writes the same stream as a
// format-3 store (one record per event) and as a format-4 store (blocks),
// checks that both read back the same events in full and in a window that
// segment bounds must narrow, that the format-3 store refuses appends, and
// that an unfinished one refuses to resume before anything is truncated
// while a finished one reports itself complete.
func TestFormatVersion3ReadableNotResumable(t *testing.T) {
	const n = 3 * blockEvents
	build := func(v int, completed bool) string {
		dir := t.TempDir()
		s, err := Create(dir, Meta{Kind: "test", SegmentBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if v == 3 {
			s.meta.FormatVersion = 3
			s.events.spanOf = eventSpanOf(3)
			appendRecords(t, s, 0, n)
		} else {
			appendN(t, s, 0, n)
		}
		if _, err := s.WriteCheckpoint(Checkpoint{TimeBits: 100 * blockEvents, Events: blockEvents, Completed: completed}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if v == 3 {
			setFormatVersion(t, dir, 3)
		}
		return dir
	}
	v3Dir := build(3, false)
	v4, err := Open(build(FormatVersion, false))
	if err != nil {
		t.Fatal(err)
	}
	defer v4.Close()
	v3, err := Open(v3Dir)
	if err != nil {
		t.Fatalf("Open of a format-3 store: %v", err)
	}
	defer v3.Close()
	if segs := len(v3.events.segs); segs < 3 {
		t.Fatalf("format-3 store has %d segments, want several for the window to skip", segs)
	}
	for _, seg := range v3.events.segs {
		if !seg.timed || seg.maxT < seg.minT {
			t.Fatalf("format-3 segment %d has time bounds [%d, %d]; the record times were not read", seg.seq, seg.minT, seg.maxT)
		}
	}
	wantAll, wantWin := readAll(t, v4, 12_000, 14_000)
	gotAll, gotWin := readAll(t, v3, 12_000, 14_000)
	if len(wantAll) != n || len(wantWin) != 21 {
		t.Fatalf("format-4 read-back: %d events, window %d; want %d and 21", len(wantAll), len(wantWin), n)
	}
	if !slices.Equal(gotAll, wantAll) || !slices.Equal(gotWin, wantWin) {
		t.Fatalf("format-3 read-back differs from format 4:\n%v\n%v", gotWin, wantWin)
	}

	if err := v3.AppendEvent(telemetry.AppendEventJSON(nil, "n", syntheticEvent(n)), 100*n); err == nil {
		t.Fatal("AppendEvent on a format-3 store must fail: blocks would join its records")
	}

	before := segmentBytes(t, v3Dir)
	_, _, err = v3.ResumePoint(SinkOptions{})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("format 3 store cannot be resumed by this build (format %d)", FormatVersion)) {
		t.Fatalf("unfinished format-3 store: ResumePoint err = %v, want a format error", err)
	}
	if c := v3.EventCount(); c != n {
		t.Fatalf("refused resume touched the store: %d events, want %d", c, n)
	}
	if after := segmentBytes(t, v3Dir); !slices.Equal(after, before) {
		t.Fatalf("refused resume changed segment sizes: %v, was %v", after, before)
	}

	done, err := Open(build(3, true))
	if err != nil {
		t.Fatal(err)
	}
	defer done.Close()
	if _, completed, err := done.ResumePoint(SinkOptions{}); err != nil || !completed {
		t.Fatalf("completed format-3 store: ResumePoint = complete %v, err %v; want complete", completed, err)
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
	appendN(t, s, 0, blockEvents)
	read := 0
	err = s.EventsInWindow(0, 1<<62, func(ev telemetry.NamedEvent) error {
		read++
		if ev.Time != 0 {
			return nil
		}
		done := make(chan error, 1)
		go func() {
			// A whole block, so the appends reach the disk.
			var err error
			for i := blockEvents; i < 2*blockEvents && err == nil; i++ {
				ev := syntheticEvent(i)
				err = s.AppendEvent(telemetry.AppendEventJSON(nil, "n", ev), ev.Time)
			}
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
	if read != blockEvents {
		t.Fatalf("window read delivered %d events, want the %d present when it started", read, blockEvents)
	}
	if times := collectTimes(t, s, 0, 1<<62); len(times) != 2*blockEvents {
		t.Fatalf("after the concurrent appends the store reads %d events, want %d", len(times), 2*blockEvents)
	}
}

// TestTornTailAtEveryOffset tears a store's event log at every byte offset
// of its last two blocks, as a crash mid-write could: Open recovers exactly
// the blocks wholly before the tear, and ResumePoint rewinds to the
// checkpoint the two blocks follow.
func TestTornTailAtEveryOffset(t *testing.T) {
	src := t.TempDir()
	s, err := Create(src, Meta{Kind: "test", SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 2*blockEvents)
	cp, err := s.WriteCheckpoint(Checkpoint{TimeBits: 100 * (2*blockEvents - 1), Events: 2 * blockEvents})
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64 // the byte offset after each block
	for b := 2; b < 4; b++ {
		ends = append(ends, s.events.active.bytes)
		appendN(t, s, b*blockEvents, blockEvents)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ends = append(ends, s.events.active.bytes)
	seg, err := os.ReadFile(filepath.Join(src, segName("events", 1)))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(src, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	cpName := fmt.Sprintf("checkpoint-%08d.json", cp.Seq)
	cpFile, err := os.ReadFile(filepath.Join(src, cpName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(seg)) != ends[2] {
		t.Fatalf("segment holds %d bytes, the blocks end at %d", len(seg), ends[2])
	}
	dir := t.TempDir()
	for off := ends[0]; off < ends[2]; off++ {
		for name, data := range map[string][]byte{"meta.json": meta, cpName: cpFile, segName("events", 1): seg[:off]} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want := int64(2 * blockEvents)
		if off >= ends[1] {
			want += blockEvents
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatalf("tear at byte %d: Open: %v", off, err)
		}
		if got := st.EventCount(); got != want {
			t.Fatalf("tear at byte %d: Open recovered %d events, want %d", off, got, want)
		}
		opts, completed, err := st.ResumePoint(SinkOptions{})
		if err != nil || completed || opts.SkipEvents != cp.Events || st.EventCount() != cp.Events {
			t.Fatalf("tear at byte %d: ResumePoint = %+v, complete %v, err %v; %d events left, want %d",
				off, opts, completed, err, st.EventCount(), cp.Events)
		}
		st.Close()
	}
}

// TestWindowReadAllocatesPerReadNotPerEvent checks that a window read's
// allocations do not grow with the events it decodes: a read of forty
// blocks allocates what a read of four does, give or take the stray
// allocation the race runtime adds; one per event would add 9,216. A
// small-window read of a small store allocates a few kilobytes, not a
// full-size read buffer.
func TestWindowReadAllocatesPerReadNotPerEvent(t *testing.T) {
	s, err := Create(t.TempDir(), Meta{Kind: "test", SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, 0, 4*blockEvents)
	n := 0
	window := func() {
		if err := s.EventsInWindow(100_000, 101_000, func(telemetry.NamedEvent) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	window()
	if n != 11 {
		t.Fatalf("window read %d events, want 11", n)
	}
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		window()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per > 32<<10 {
		t.Errorf("a small-window read of a %d-byte store allocates %d B, want at most 32 KiB", s.events.diskBytes(), per)
	}

	allocs := func(blocks int) float64 {
		s, err := Create(t.TempDir(), Meta{Kind: "test", SegmentBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		appendN(t, s, 0, blocks*blockEvents)
		n := 0
		read := func() {
			if err := s.Events(func(telemetry.NamedEvent) error { n++; return nil }); err != nil {
				t.Fatal(err)
			}
		}
		read()
		if n != blocks*blockEvents {
			t.Fatalf("read %d events of %d", n, blocks*blockEvents)
		}
		return testing.AllocsPerRun(20, read)
	}
	const slack = 4
	if few, many := allocs(4), allocs(40); many > few+slack {
		t.Fatalf("reading 40 blocks allocates %v times, 4 blocks %v: decoding allocates per block or per event", many, few)
	}
}

// TestWindowReadReadsOnlyItsBlocks: a window read seeks through the
// segment's block table to the blocks its window overlaps and reads nothing
// else. Every byte of the segment outside those blocks is overwritten and
// the 11-event window still reads back; a flipped byte inside them fails
// the read on its CRC. Open rebuilds the same table from its header walk.
func TestWindowReadReadsOnlyItsBlocks(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Meta{Kind: "test", SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 16*blockEvents)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	appended := slices.Clone(s.events.segs[0].blocks)
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	seg := s.events.segs[0]
	if len(s.events.segs) != 1 || !slices.Equal(seg.blocks, appended) || len(appended) != 16 {
		t.Fatalf("Open's block table %v, append's %v (want 16 blocks in one segment)", seg.blocks, appended)
	}

	const from, to = 100_000, 101_000
	var start, end, blockBytes int64 = -1, 0, 0
	if err := seg.eachRun(from, to, func(s, e int64) error {
		if start >= 0 {
			t.Fatalf("window spans two ranges")
		}
		start, end = s, e
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, b := range seg.blocks {
		blockBytes = max(blockBytes, int64(b.n))
	}
	if start < 0 || end-start > 2*blockBytes {
		t.Fatalf("window reads bytes [%d, %d) of a %d-byte segment, want at most two blocks (%d B)", start, end, seg.bytes, 2*blockBytes)
	}

	path := s.events.segPath(seg.seq)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if int64(i) < start || int64(i) >= end {
			data[i] = 0xFF
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []int64
	if err := s.EventsInWindow(from, to, func(ev telemetry.NamedEvent) error {
		got = append(got, ev.Time)
		return nil
	}); err != nil {
		t.Fatalf("window read touched bytes outside its blocks: %v", err)
	}
	if len(got) != 11 || got[0] != from || got[10] != to {
		t.Fatalf("window read %v, want the 11 events from %d to %d", got, from, to)
	}

	data[(start+end)/2] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.EventsInWindow(from, to, func(telemetry.NamedEvent) error { return nil }); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("a flipped byte inside the window's block read back with error %v, want a CRC mismatch", err)
	}
}
