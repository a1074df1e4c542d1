package forensics

import (
	"testing"

	"michican/internal/telemetry"
)

// benignFrames feeds a detached engine clean frames: each one a SOF, an
// arbitration win and a success, every fourth with a second transmitter that
// loses arbitration. It returns the bit time after the last frame.
func benignFrames(e *Engine, a, b telemetry.NodeID, t int64, n int) int64 {
	for i := 0; i < n; i++ {
		id := int64(0x100 + i%32)
		e.Feed(telemetry.Event{Time: t, Kind: telemetry.EvTxStart, Node: a, A: id})
		if i%4 == 0 {
			e.Feed(telemetry.Event{Time: t, Kind: telemetry.EvTxStart, Node: b, A: id + 1})
			e.Feed(telemetry.Event{Time: t + 11, Kind: telemetry.EvArbLost, Node: b, A: 11})
		}
		e.Feed(telemetry.Event{Time: t + 12, Kind: telemetry.EvArbWon, Node: a, A: id})
		e.Feed(telemetry.Event{Time: t + 110, Kind: telemetry.EvTxSuccess, Node: a, A: id})
		t += 130
	}
	return t
}

func (e *Engine) retainedSuccesses() int {
	n := 0
	for _, recs := range e.successes {
		n += len(recs)
	}
	return n
}

// TestSuccessLogBoundedOnBenignTraffic: with no incident open, no completed
// frame can ever be charged as leaked, so none may be kept.
func TestSuccessLogBoundedOnBenignTraffic(t *testing.T) {
	hub := telemetry.NewHub()
	hub.Probe("restbus")
	hub.Probe("defender")
	e := New(hub)
	end := benignFrames(e, 0, 1, 0, 100_000)
	e.Finalize(end)
	if n := e.retainedSuccesses(); n != 0 {
		t.Fatalf("success log retains %d records after 100000 benign frames, want 0", n)
	}
	if got := e.TxSuccessCount("restbus"); got != 100_000 {
		t.Fatalf("TxSuccessCount = %d, want 100000", got)
	}
	if st := e.Stats(); st.DroppedAttempts != 0 || len(e.Incidents()) != 0 {
		t.Fatalf("benign frames produced incidents or drops: %+v", st)
	}
}

// TestCleanFrameFoldAllocatesNothing: folding a healthy frame reuses the
// previous frame's attempt and tx map.
func TestCleanFrameFoldAllocatesNothing(t *testing.T) {
	hub := telemetry.NewHub()
	hub.Probe("restbus")
	hub.Probe("defender")
	e := New(hub)
	next := benignFrames(e, 0, 1, 0, 10_000)
	frames := func() { next = benignFrames(e, 0, 1, next, 4) }
	if got := testing.AllocsPerRun(1000, frames); got != 0 {
		t.Fatalf("folding four clean frames allocates %v times, want 0", got)
	}
}
