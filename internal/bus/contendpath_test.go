package bus

import (
	"reflect"
	"testing"

	"michican/internal/can"
)

// Single-capability mixins for fake nodes: each fake embeds the ones it
// asserts, so a fake lacking exactly one capability is one struct literal.
type (
	driveCap   struct{}
	quietCap   struct{}
	runCap     struct{}
	contendCap struct{}
	spliceCap  struct{}
)

func (driveCap) Drive(BitTime) can.Level                             { return can.Recessive }
func (driveCap) Observe(BitTime, can.Level)                          {}
func (quietCap) QuiescentUntil(BitTime) BitTime                      { return QuiescentForever }
func (quietCap) SkipIdle(_, _ BitTime)                               {}
func (runCap) PassiveRun(_ BitTime, _ int, levels []can.Level) int   { return len(levels) }
func (runCap) ObserveRun(BitTime, []can.Level)                       {}
func (contendCap) ContendBits(now BitTime) ([]can.Level, BitTime)    { return nil, now }
func (contendCap) ContendFrameBit() int                              { return -1 }
func (spliceCap) SpliceOffer(BitTime) *SpliceWindow                  { return nil }
func (spliceCap) SpliceApply(BitTime, *SpliceWindow)                 {}
func (spliceCap) SpliceCommit(BitTime, *SpliceWindow)                {}
func (spliceCap) SpliceQuery(BitTime, *SpliceWindow) (ok, acks bool) { return true, true }

type (
	fullNode struct {
		driveCap
		quietCap
		runCap
		contendCap
		spliceCap
	}
	noQuietNode struct {
		driveCap
		runCap
		contendCap
		spliceCap
	}
	noRunNode struct {
		driveCap
		quietCap
		contendCap
		spliceCap
	}
	noContendNode struct {
		driveCap
		quietCap
		runCap
		spliceCap
	}
	noSpliceNode struct {
		driveCap
		quietCap
		runCap
		contendCap
	}
)

// Fake taps: Bit plus the batch capabilities each asserts.
type (
	bitCap     struct{}
	tapSkipCap struct{}
	tapRunCap  struct{}
	noSkipTap  struct {
		bitCap
		tapRunCap
	}
	noRunTap struct {
		bitCap
		tapSkipCap
	}
)

func (bitCap) Bit(BitTime, can.Level)         {}
func (tapSkipCap) SkipIdle(_, _ BitTime)      {}
func (tapRunCap) BitRun(BitTime, []can.Level) {}

// soleCommitter publishes a fixed stream starting at bit 0 as a
// ContendCommitter and drives it on the exact path too. It lacks Quiescent
// and Splicing, so only the contend rung can carry its stream.
type soleCommitter struct {
	stream []can.Level
	runs   int
}

func (c *soleCommitter) Drive(t BitTime) can.Level {
	if t < BitTime(len(c.stream)) {
		return c.stream[t]
	}
	return can.Recessive
}

func (c *soleCommitter) Observe(BitTime, can.Level) {}

func (c *soleCommitter) ContendBits(now BitTime) ([]can.Level, BitTime) {
	if now >= BitTime(len(c.stream)) {
		return nil, now
	}
	run := c.stream[now:]
	return run, now + BitTime(len(run))
}

func (c *soleCommitter) ContendFrameBit() int { return -1 }

func (c *soleCommitter) PassiveRun(_ BitTime, _ int, levels []can.Level) int { return len(levels) }

func (c *soleCommitter) ObserveRun(BitTime, []can.Level) { c.runs++ }

// spanRecorder is a passive receiver and tap that records every level it is
// delivered and how many batch deliveries carried them.
type spanRecorder struct {
	levels []can.Level
	runs   int
}

func (r *spanRecorder) Drive(BitTime) can.Level { return can.Recessive }

func (r *spanRecorder) Observe(_ BitTime, l can.Level) { r.levels = append(r.levels, l) }

func (r *spanRecorder) PassiveRun(_ BitTime, _ int, levels []can.Level) int { return len(levels) }

func (r *spanRecorder) ObserveRun(_ BitTime, levels []can.Level) {
	r.levels = append(r.levels, levels...)
	r.runs++
}

func (r *spanRecorder) Bit(_ BitTime, l can.Level) { r.levels = append(r.levels, l) }

func (r *spanRecorder) BitRun(_ BitTime, levels []can.Level) {
	r.levels = append(r.levels, levels...)
	r.runs++
}

// TestSoleCommitterContendSpan runs one committer beside passive receivers:
// the contend rung carries its whole stream in one span — the single-
// committer case, which skips the wired-AND resolution — and every receiver
// and tap sees exactly what exact stepping delivers.
func TestSoleCommitterContendSpan(t *testing.T) {
	stream := make([]can.Level, 41) // ends on a one-bit recessive run
	for i := range stream {
		stream[i] = can.Recessive
		if i%3 == 0 {
			stream[i] = can.Dominant
		}
	}
	run := func(top Rung) (*Bus, *soleCommitter, *spanRecorder, *spanRecorder) {
		b := New(Rate500k)
		b.SetLadder(top)
		c := &soleCommitter{stream: stream}
		rx := &spanRecorder{}
		tap := &spanRecorder{}
		b.Attach(c)
		b.Attach(rx)
		b.Attach(&fullNode{})
		b.AttachTap(tap)
		b.Run(int64(len(stream)))
		return b, c, rx, tap
	}
	exact, _, exactRx, exactTap := run(RungExact)
	b, c, rx, tap := run(RungSplice)
	if got := b.ContendForwardedBits(); got != int64(len(stream)) {
		t.Fatalf("contend rung carried %d bits, want the whole %d-bit stream", got, len(stream))
	}
	if b.FastForwardedBits() != b.ContendForwardedBits() {
		t.Errorf("another rung carried %d bits", b.FastForwardedBits()-b.ContendForwardedBits())
	}
	if c.runs != 1 || rx.runs != 1 || tap.runs != 1 {
		t.Errorf("span deliveries: committer %d, receiver %d, tap %d; want one each", c.runs, rx.runs, tap.runs)
	}
	if !reflect.DeepEqual(rx.levels, exactRx.levels) || !reflect.DeepEqual(tap.levels, exactTap.levels) {
		t.Errorf("span delivery differs from exact stepping:\nreceiver %v\nexact    %v", rx.levels, exactRx.levels)
	}
	if b.Now() != exact.Now() || b.Level() != exact.Level() || b.IdleRun() != exact.IdleRun() {
		t.Errorf("bus state after the span (now %d, level %v, idle run %d), exact (%d, %v, %d)",
			b.Now(), b.Level(), b.IdleRun(), exact.Now(), exact.Level(), exact.IdleRun())
	}
}
