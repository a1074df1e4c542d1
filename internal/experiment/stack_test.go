package experiment

import (
	"errors"
	"testing"

	"michican/internal/store"
	"michican/internal/telemetry"
)

// TestStackRetention checks that the hub keeps events only when the stack
// is built for an exporter.
func TestStackRetention(t *testing.T) {
	for _, retain := range []bool{false, true} {
		s := NewStack(telemetry.NewHub(), StackConfig{Forensics: true, Watch: true, Retain: retain})
		s.Hub.Probe("node").Emit(10, telemetry.EvTxSuccess, 0x173, 0)
		if err := s.Finalize(20); err != nil {
			t.Fatal(err)
		}
		if got := s.Hub.Len() == 1; got != retain {
			t.Errorf("Retain %v: hub holds %d events", retain, s.Hub.Len())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStackFinalizeAndClose drives a durable stack both ways: Finalize
// seals the store as complete and a later Close adds nothing, while Close
// alone leaves a store that resumes.
func TestStackFinalizeAndClose(t *testing.T) {
	for _, finalize := range []bool{true, false} {
		dir := t.TempDir()
		var cfg struct{ N int }
		st, err := CreateStore(dir, store.Meta{Kind: "test"}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := NewStack(telemetry.NewHub(), StackConfig{Forensics: true, Watch: true, Store: st})
		for i := int64(0); i < 600; i++ {
			s.Hub.Probe("node").Emit(i*100, telemetry.EvTxSuccess, 0x173, 0)
		}
		if finalize {
			if err := s.Finalize(60_000); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("finalize %v: Close: %v", finalize, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("finalize %v: second Close: %v", finalize, err)
		}
		st, _, err = ResumeStore(dir, &cfg, store.SinkOptions{}, func() error { return nil })
		if finalize != errors.Is(err, ErrRunComplete) {
			t.Errorf("finalize %v: resume err = %v", finalize, err)
		}
		if st != nil {
			st.Close()
		}
	}
}

// TestReplayStoreEnd checks where a replay finalizes: at a closed window's
// end, and for an open window at the completed run's end, not one past its
// last event.
func TestReplayStoreEnd(t *testing.T) {
	dir := t.TempDir()
	st, err := CreateStore(dir, store.Meta{Kind: "test"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStack(telemetry.NewHub(), StackConfig{Forensics: true, Store: st})
	s.Hub.Probe("node").Emit(500, telemetry.EvTxSuccess, 0x173, 0)
	if err := s.Finalize(9_000); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		to, end int64
	}{{store.OpenWindowEnd, 9_000}, {4_000, 4_000}} {
		n := 0
		r, err := ReplayStore(dir, 0, tc.to, StackConfig{Forensics: true}, func(telemetry.NamedEvent) { n++ })
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Forensics.Stats().RecordingEnd; got != tc.end || n != 1 {
			t.Errorf("window to %d: ended at %d after %d events, want %d after 1", tc.to, got, n, tc.end)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
