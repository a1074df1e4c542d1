package forensics

import (
	"testing"

	"michican/internal/telemetry"
)

// benignHub is a hub with retention off, a restbus node a and a defender
// node b, and an engine subscribed to it.
func benignHub() (e *Engine, a, b telemetry.Probe) {
	hub := telemetry.NewHub()
	hub.RetainEvents(false)
	a, b = hub.Probe("restbus"), hub.Probe("defender")
	return NewEngine(hub), a, b
}

// benignFrames emits clean frames: each one a SOF, an arbitration win and a
// success, every fourth with a second transmitter that loses arbitration.
// It returns the bit time after the last frame.
func benignFrames(a, b telemetry.Probe, t int64, n int) int64 {
	for i := 0; i < n; i++ {
		id := int64(0x100 + i%32)
		a.Emit(t, telemetry.EvTxStart, id, 0)
		if i%4 == 0 {
			b.Emit(t, telemetry.EvTxStart, id+1, 0)
			b.Emit(t+11, telemetry.EvArbLost, 11, 0)
		}
		a.Emit(t+12, telemetry.EvArbWon, id, 0)
		a.Emit(t+110, telemetry.EvTxSuccess, id, 0)
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
	e, a, b := benignHub()
	end := benignFrames(a, b, 0, 100_000)
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
// previous frame's attempt and tx map, and the hub's ordered delivery adds
// nothing per event.
func TestCleanFrameFoldAllocatesNothing(t *testing.T) {
	_, a, b := benignHub()
	next := benignFrames(a, b, 0, 10_000)
	frames := func() { next = benignFrames(a, b, next, 4) }
	if got := testing.AllocsPerRun(1000, frames); got != 0 {
		t.Fatalf("folding four clean frames allocates %v times, want 0", got)
	}
}
