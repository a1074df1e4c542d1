package store

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"michican/internal/forensics"
	"michican/internal/telemetry"
)

// emitScripted drives a deterministic cross-node event script through a
// hub: two nodes whose emissions interleave out of global time order (as
// batch fast-path delivery does), exercising the sink's sequencer. Returns
// the final bit time.
func emitScripted(h *telemetry.Hub, n int) int64 {
	return emitScriptedFrom(h, 0, n)
}

// emitScriptedFrom is emitScripted starting at bit time start, so a run can
// be split around an explicit checkpoint.
func emitScriptedFrom(h *telemetry.Hub, start int64, n int) int64 {
	a := h.Probe("alice")
	b := h.Probe("bob")
	t := start
	for i := 0; i < n; i++ {
		t += 50
		// bob's span is delivered first even though alice's events in it are
		// earlier — the sequencer must restore (Time, Node) order.
		b.Emit(t+20, telemetry.EvTxStart, int64(0x123), 0)
		b.Emit(t+40, telemetry.EvTxSuccess, int64(0x123), 0)
		a.Emit(t+10, telemetry.EvArbLost, 3, 0)
		a.Emit(t+30, telemetry.EvREC, int64(i%16), int64((i-1)%16))
		t += 100
	}
	return t
}

// durableJSONL reads every stored event back as JSONL text.
func durableJSONL(t *testing.T, dir string) []byte {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var buf bytes.Buffer
	err = s.Events(func(ev telemetry.NamedEvent) error {
		line := telemetry.AppendEventJSON(nil, ev.Node, telemetry.Event{Time: ev.Time, Kind: ev.Kind, A: ev.A, B: ev.B})
		buf.Write(line)
		buf.WriteByte('\n')
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSinkMatchesWriteJSONL: the stored stream equals WriteJSONL of the
// retained log, whether the sink is the hub's only ordered subscriber (the
// store overhead arm's wiring) or rides beside a forensics engine (a
// durable vehicle's), and whether the run finalizes (forensics Finalize,
// then the incident hand-off and a Completed close, as FinalizeDurable
// does) or stops at a crash image (a bare Close(t, false), which must still
// flush the hub's reorder window into the store).
func TestSinkMatchesWriteJSONL(t *testing.T) {
	for _, withForensics := range []bool{false, true} {
		for _, finalize := range []bool{true, false} {
			name := fmt.Sprintf("forensics=%v/finalize=%v", withForensics, finalize)
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				st, err := Create(dir, Meta{Kind: "test"})
				if err != nil {
					t.Fatal(err)
				}
				h := telemetry.NewHub()
				var eng *forensics.Engine
				if withForensics {
					eng = forensics.NewEngine(h)
				}
				sink := NewSink(st, h, SinkOptions{FlushEvents: 7})
				end := emitScripted(h, 500)
				if eng != nil && finalize {
					eng.Finalize(end)
					payloads, err := forensics.EncodeIncidents(eng.Incidents())
					if err != nil {
						t.Fatal(err)
					}
					if err := sink.AppendIncidents(payloads); err != nil {
						t.Fatal(err)
					}
				}
				if err := sink.Close(end, finalize); err != nil {
					t.Fatal(err)
				}
				st.Close()

				var want bytes.Buffer
				if err := h.WriteJSONL(&want); err != nil {
					t.Fatal(err)
				}
				got := durableJSONL(t, dir)
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("durable stream diverges from WriteJSONL: %d vs %d bytes", len(got), want.Len())
				}

				st2, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer st2.Close()
				cp, err := st2.LatestCheckpoint()
				if !finalize {
					if err == nil && cp.Completed {
						t.Fatalf("crash image left a Completed checkpoint %+v", cp)
					}
					return
				}
				// The completed run left a final checkpoint covering everything.
				if err != nil {
					t.Fatal(err)
				}
				if !cp.Completed || cp.Events != st2.EventCount() {
					t.Fatalf("final checkpoint = %+v, events on disk %d", cp, st2.EventCount())
				}
			})
		}
	}
}

// TestSinkEmitAllocatesNothing: on a hub carrying a forensics engine and a
// sink, steady-state emission — sequencing, batch delivery, the incident
// fold, the hand-off copy and the writer's appends — allocates nothing per
// event.
func TestSinkEmitAllocatesNothing(t *testing.T) {
	st, err := Create(t.TempDir(), Meta{Kind: "test", Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := telemetry.NewHub()
	h.RetainEvents(false)
	forensics.NewEngine(h)
	sink := NewSink(st, h, SinkOptions{})
	next := emitScripted(h, 20_000)
	frames := func() { next = emitScriptedFrom(h, next, 1) }
	if got := testing.AllocsPerRun(20_000, frames); got != 0 {
		t.Fatalf("emitting one scripted round (4 events) allocates %v times, want 0", got)
	}
	if err := sink.Close(next, true); err != nil {
		t.Fatal(err)
	}
}

func TestSinkCountersOnHubRegistry(t *testing.T) {
	st, err := Create(t.TempDir(), Meta{Kind: "test"})
	if err != nil {
		t.Fatal(err)
	}
	h := telemetry.NewHub()
	sink := NewSink(st, h, SinkOptions{FlushEvents: 16})
	end := emitScripted(h, 100)
	if err := sink.Close(end, true); err != nil {
		t.Fatal(err)
	}
	st.Close()
	reg := h.Registry()
	if c := reg.FindCounter("michican_store_events_appended_total"); c == nil || c.Value() != 400 {
		t.Fatalf("events_appended counter = %v", c)
	}
	if c := reg.FindCounter("michican_store_bytes_appended_total"); c == nil || c.Value() == 0 {
		t.Fatal("bytes_appended counter missing or zero")
	}
	if c := reg.FindCounter("michican_store_fsyncs_total"); c == nil || c.Value() == 0 {
		t.Fatal("fsyncs counter missing or zero")
	}
	if c := reg.FindCounter("michican_store_checkpoints_total"); c == nil || c.Value() != 1 {
		t.Fatalf("checkpoints counter = %v", c)
	}
	if g := reg.FindGauge("michican_store_drain_backlog"); g == nil || g.Value() != 0 {
		t.Fatalf("drain backlog gauge should be 0 after Close, got %v", g)
	}
}

func TestSinkResumeConvergesByteIdentical(t *testing.T) {
	// Reference: an uninterrupted run with periodic checkpoints.
	refDir := t.TempDir()
	refStore, err := Create(refDir, Meta{Kind: "test", SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	refHub := telemetry.NewHub()
	refSink := NewSink(refStore, refHub, SinkOptions{FlushEvents: 64, CheckpointIntervalBits: 10_000})
	refEnd := emitScripted(refHub, 2000)
	refIncs := [][]byte{[]byte(`{"id":"0x123","start":100,"end":900}`)}
	if err := refSink.AppendIncidents(refIncs); err != nil {
		t.Fatal(err)
	}
	if err := refSink.Close(refEnd, true); err != nil {
		t.Fatal(err)
	}
	refStore.Close()

	// Interrupted run: same stream, killed mid-way with no clean close. The
	// run reaches a durable checkpoint at 50%, emits a further 10% whose
	// records are buffered or appended but never checkpointed, then
	// "crashes": everything past the checkpoint — writer-queue backlog and
	// post-checkpoint appends alike — is simply abandoned, as after SIGKILL.
	dir := t.TempDir()
	st1, err := Create(dir, Meta{Kind: "test", SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	h1 := telemetry.NewHub()
	s1 := NewSink(st1, h1, SinkOptions{FlushEvents: 64, CheckpointIntervalBits: 10_000})
	mid := emitScriptedFrom(h1, 0, 1000)
	if err := s1.Checkpoint(mid); err != nil {
		t.Fatal(err)
	}
	emitScriptedFrom(h1, mid, 200) // the doomed tail
	if err := s1.Err(); err != nil {
		t.Fatal(err)
	}
	st1.Close() // release file handles only; no Close(), no final checkpoint

	// Recovery: open, rewind to the newest checkpoint, re-run the generator
	// with the sink skipping the durable prefix.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := st2.LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Events == 0 || cp.Completed {
		t.Fatalf("unexpected checkpoint %+v", cp)
	}
	if err := st2.TruncateTo(cp); err != nil {
		t.Fatal(err)
	}
	h2 := telemetry.NewHub()
	s2 := NewSink(st2, h2, SinkOptions{
		FlushEvents:            64,
		CheckpointIntervalBits: 10_000,
		SkipEvents:             cp.Events,
		SkipIncidents:          cp.Incidents,
		ExpectPrefixHash:       cp.PrefixHash,
		ExpectIncidentHash:     cp.IncidentHash,
		ResumeFromBits:         cp.TimeBits,
	})
	end2 := emitScripted(h2, 2000) // the full deterministic run, regenerated
	if err := s2.AppendIncidents(refIncs); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(end2, true); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	assertSameSegments(t, dir, refDir)
	if got, want := durableJSONL(t, dir), durableJSONL(t, refDir); !bytes.Equal(got, want) {
		t.Fatal("resumed event stream differs from uninterrupted run")
	}
}

func TestSinkResumeDetectsDivergedPrefix(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, Meta{Kind: "test"})
	if err != nil {
		t.Fatal(err)
	}
	h := telemetry.NewHub()
	s := NewSink(st, h, SinkOptions{})
	emitScripted(h, 50)
	if err := s.Close(100000, false); err != nil {
		t.Fatal(err)
	}
	n := st.EventCount()
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	h2 := telemetry.NewHub()
	s2 := NewSink(st2, h2, SinkOptions{
		SkipEvents:       n,
		ExpectPrefixHash: "0000000000000000", // wrong on purpose
	})
	end := emitScripted(h2, 50)
	if err := s2.Close(end, false); err == nil {
		t.Fatal("diverged prefix hash must poison the sink")
	}
}

// TestSinkSkipsSpansAndAlerts checks that fast-forward spans and alert
// transitions reach the hub (its counters still fold every span) but not the
// event log.
func TestSinkSkipsSpansAndAlerts(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, Meta{Kind: "test"})
	if err != nil {
		t.Fatal(err)
	}
	h := telemetry.NewHub()
	sink := NewSink(st, h, SinkOptions{})
	bus, watch := h.Probe("bus"), h.Probe("watch")
	for i := int64(0); i < 100; i++ {
		bus.Emit(1000*i, telemetry.EvFFSpan, 900, 3)
		watch.Emit(1000*i+1, telemetry.EvAlert, 0, i%2)
	}
	end := emitScriptedFrom(h, 100_000, 50)
	if err := sink.Close(end, true); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if n := st2.EventCount(); n != 200 {
		t.Fatalf("stored %d events, want the 200 scripted ones", n)
	}
	err = st2.Events(func(ev telemetry.NamedEvent) error {
		if ev.Kind == telemetry.EvFFSpan || ev.Kind == telemetry.EvAlert {
			return fmt.Errorf("stored %v record at t=%d", ev.Kind, ev.Time)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Registry().Counter("michican_ff_splice_bits_total", "node", "bus").Value(); got != 90_000 {
		t.Fatalf("splice span counter = %d, want 90000", got)
	}
}

// TestSinkQueueBlocksAtBound holds the sink's writer at its lock so the
// hand-off queue fills to sinkQueueBatches: the emitter must then block in
// the hub callback rather than grow the queue, and once the writer is
// released every event must reach the store.
func TestSinkQueueBlocksAtBound(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, Meta{Kind: "test", Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	h := telemetry.NewHub()
	sink := NewSink(st, h, SinkOptions{})
	// The writer takes one batch and waits on mu, the queue holds
	// sinkQueueBatches more, and the emitter blocks sending the next: it has
	// then counted sinkQueueBatches+2 batches as shipped and has more to go.
	const rounds = (sinkQueueBatches + 3) * sinkBatchEvents / 4
	const blockedAt = (sinkQueueBatches + 2) * sinkBatchEvents
	sink.mu.Lock()
	emitted := make(chan int64)
	go func() {
		end := emitScripted(h, rounds)
		h.Flush()
		emitted <- end
	}()
	for deadline := time.Now().Add(10 * time.Second); sink.added.Load() != blockedAt || len(sink.work) != sinkQueueBatches; {
		if time.Now().After(deadline) {
			sink.mu.Unlock()
			t.Fatalf("emitter never blocked: %d events shipped, %d batches queued", sink.added.Load(), len(sink.work))
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-emitted:
		sink.mu.Unlock()
		t.Fatal("the emitter finished while the queue was full")
	default:
	}
	sink.mu.Unlock()
	end := <-emitted
	if err := sink.Close(end, true); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if got, want := st.EventCount(), int64(4*rounds); got != want {
		t.Fatalf("stored %d events, emitted %d", got, want)
	}
	var want bytes.Buffer
	if err := h.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if got := durableJSONL(t, dir); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("stored stream diverges from the emitted one: %d vs %d bytes", len(got), want.Len())
	}
}

// TestFinalizeIsOneGroupCommit counts the fsyncs a finalize issues: the
// final checkpoint's one group commit fsyncs the event log (its last block)
// and the incident log, and leaves the never-written alert log alone — no
// second commit, no fsync of a clean log. The alert log never even
// allocates its write buffer.
func TestFinalizeIsOneGroupCommit(t *testing.T) {
	st, err := Create(t.TempDir(), Meta{Kind: "test", Fsync: FsyncCheckpoint})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.incidents.bw != nil || st.alerts.bw != nil {
		t.Fatal("Create allocated write buffers for the incident and alert logs")
	}
	h := telemetry.NewHub()
	sink := NewSink(st, h, SinkOptions{})
	end := emitScriptedFrom(h, 0, 3*blockEvents/4+10)
	if err := sink.Checkpoint(end); err != nil {
		t.Fatal(err)
	}
	syncs := func() [3]int64 { return [3]int64{st.events.syncs, st.incidents.syncs, st.alerts.syncs} }
	before, commits := syncs(), st.Stats().Fsyncs
	if err := sink.AppendIncidents([][]byte{[]byte(`{"id":"0x123"}`)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(end, true); err != nil {
		t.Fatal(err)
	}
	after := syncs()
	if got := [3]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}; got != [3]int64{1, 1, 0} {
		t.Fatalf("finalize fsynced (events, incidents, alerts) %v times, want [1 1 0]", got)
	}
	if got := st.Stats().Fsyncs - commits; got != 1 {
		t.Fatalf("finalize made %d group commits, want 1", got)
	}
	if st.alerts.bw != nil {
		t.Fatal("the unwritten alert log allocated a write buffer")
	}
}
