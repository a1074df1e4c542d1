package controller

import (
	"testing"

	"michican/internal/bus"
	"michican/internal/can"
)

// jammer is a minimal prototype of the MichiCAN prevention primitive: it
// watches for SOF (falling edge after ≥11 recessive bits) and pulls the bus
// dominant during frame bit positions [from, to] (counting SOF as 1). It is
// not a CAN node — it never raises error flags and has no error counters.
type jammer struct {
	from, to  int
	cnt       int
	inFrame   bool
	idleRun   int
	driveNext can.Level
	attacks   int
}

func newJammer(from, to int) *jammer {
	return &jammer{from: from, to: to, idleRun: can.IdleForSOF, driveNext: can.Recessive}
}

func (j *jammer) Drive(_ bus.BitTime) can.Level { return j.driveNext }

func (j *jammer) Observe(_ bus.BitTime, level can.Level) {
	j.driveNext = can.Recessive
	if !j.inFrame {
		if level == can.Dominant && j.idleRun >= can.IdleForSOF {
			j.inFrame = true
			j.cnt = 1 // SOF is position 1
			j.attacks++
		}
		if level == can.Recessive {
			j.idleRun++
		} else {
			j.idleRun = 0
		}
		if j.inFrame && j.cnt+1 >= j.from && j.cnt+1 <= j.to {
			j.driveNext = can.Dominant
		}
		return
	}
	j.cnt++
	if level == can.Recessive {
		j.idleRun++
	} else {
		j.idleRun = 0
	}
	if j.cnt >= j.to || j.idleRun >= can.IdleForSOF {
		// Done jamming this frame; wait for the error recovery and next SOF.
		if j.idleRun >= can.IdleForSOF {
			j.inFrame = false
		}
	}
	if j.cnt+1 >= j.from && j.cnt+1 <= j.to {
		j.driveNext = can.Dominant
	}
}

// spin runs the bus until the predicate is true or the bit budget is spent.
func spin(t *testing.T, b *bus.Bus, pred func() bool, maxBits int64, msg string) {
	t.Helper()
	if !b.RunUntil(pred, maxBits) {
		t.Fatalf("condition never reached within %d bits: %s", maxBits, msg)
	}
}

func TestTransmitterTECRampToBusOff(t *testing.T) {
	// A persistent transmitter whose every frame is destroyed must take
	// exactly 32 attempts: TEC 8,16,...,128 (error-passive after the 16th),
	// then 136,...,256 (bus-off at the 32nd). Fig. 1b / Sec. IV-E.
	b := bus.New(bus.Rate500k)
	attacker := newTestController("attacker", nil)
	witness := newTestController("witness", nil) // a receiver, as on any real bus
	jam := newJammer(13, 20)
	b.Attach(attacker)
	b.Attach(witness)
	b.Attach(jam)

	if err := attacker.Enqueue(can.Frame{ID: 0x173, Data: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}

	spin(t, b, func() bool { return attacker.State() == ErrorPassive }, 5000,
		"attacker should reach error-passive")
	if got := attacker.Stats().TxAttempts; got != 16 {
		t.Errorf("attempts at error-passive = %d, want 16", got)
	}
	if got := attacker.TEC(); got != 128 {
		t.Errorf("TEC at error-passive = %d, want 128", got)
	}

	spin(t, b, func() bool { return attacker.State() == BusOff }, 5000,
		"attacker should reach bus-off")
	if got := attacker.Stats().TxAttempts; got != 32 {
		t.Errorf("attempts at bus-off = %d, want 32", got)
	}
	if got := attacker.TEC(); got != 256 {
		t.Errorf("TEC at bus-off = %d, want 256", got)
	}
	if got := attacker.Stats().BusOffEvents; got != 1 {
		t.Errorf("BusOffEvents = %d, want 1", got)
	}
}

func TestBusOffTimeWithinPaperBound(t *testing.T) {
	// Sec. V-C: with one attacker and no benign traffic, the total bus-off
	// time is bounded by 16·(35 + 43) = 1248 bits (worst case, excluding
	// stuff bits). Our jammer reproduces the defense's timing, so the
	// measured interval from first SOF to bus-off must be in that range.
	b := bus.New(bus.Rate500k)
	attacker := newTestController("attacker", nil)
	witness := newTestController("witness", nil)
	jam := newJammer(13, 20)
	b.Attach(attacker)
	b.Attach(witness)
	b.Attach(jam)

	if err := attacker.Enqueue(can.Frame{ID: 0x173, Data: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	start := b.Now()
	spin(t, b, func() bool { return attacker.State() == BusOff }, 5000, "bus-off")
	elapsed := int64(b.Now() - start)
	// Lower bound: best case 16·(30+38) = 1088 bits; upper bound: worst case
	// 1248 plus stuff bits and the handful of bits before the first SOF.
	if elapsed < 1000 || elapsed > 1400 {
		t.Errorf("bus-off took %d bits, expected ≈[1088,1248] (+stuff)", elapsed)
	}
	t.Logf("bus-off time: %d bits (%v at 500 kbit/s)", elapsed, bus.Rate500k.Duration(elapsed))
}

func TestRetransmissionGapActiveVsPassive(t *testing.T) {
	// Sec. II-B: minimum separation between attempts is 11 recessive bits in
	// error-active state and 25 in error-passive (suspend included).
	b := bus.New(bus.Rate500k)
	attacker := newTestController("attacker", nil)
	witness := newTestController("witness", nil)
	jam := newJammer(13, 20)

	var sofs []bus.BitTime
	sofWatch := &sofWatcher{out: &sofs, idle: can.IdleForSOF}
	b.Attach(attacker)
	b.Attach(witness)
	b.Attach(jam)
	b.AttachTap(sofWatch)

	if err := attacker.Enqueue(can.Frame{ID: 0x173, Data: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	spin(t, b, func() bool { return attacker.State() == BusOff }, 5000, "bus-off")

	if len(sofs) != 32 {
		t.Fatalf("observed %d transmission attempts, want 32", len(sofs))
	}
	// Attempts 2..16 happen in the error-active region, 17..32 error-passive.
	// The paper's worst-case per-attempt times are t_a = 35 and t_p = 43
	// bits (Table III); the difference is exactly the 8-bit suspend period.
	activeGap := int64(sofs[2] - sofs[1])
	passiveGap := int64(sofs[20] - sofs[19])
	if passiveGap-activeGap != SuspendBits {
		t.Errorf("passive spacing (%d) - active spacing (%d) = %d, want the %d-bit suspend",
			passiveGap, activeGap, passiveGap-activeGap, SuspendBits)
	}
	if activeGap != 35 {
		t.Errorf("error-active attempt spacing = %d bits, want the paper's t_a = 35", activeGap)
	}
	if passiveGap != 43 {
		t.Errorf("error-passive attempt spacing = %d bits, want the paper's t_p = 43", passiveGap)
	}
}

// sofWatcher records the bit time of every SOF (falling edge after ≥11
// recessive bits).
type sofWatcher struct {
	idle int
	out  *[]bus.BitTime
}

func (w *sofWatcher) Bit(t bus.BitTime, level can.Level) {
	if level == can.Dominant {
		if w.idle >= can.IdleForSOF {
			*w.out = append(*w.out, t)
		}
		w.idle = 0
		return
	}
	w.idle++
}

func TestBusOffRecovery(t *testing.T) {
	// A bus-off node recovers after observing 128 sequences of 11 recessive
	// bits, then resumes transmission (the paper's persistent attacker).
	b := bus.New(bus.Rate500k)
	attacker := newTestController("attacker", nil)
	witness := newTestController("witness", nil)
	jam := newJammer(13, 20)
	b.Attach(attacker)
	b.Attach(witness)
	b.Attach(jam)

	if err := attacker.Enqueue(can.Frame{ID: 0x173, Data: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	spin(t, b, func() bool { return attacker.State() == BusOff }, 5000, "bus-off")
	busOffAt := b.Now()

	spin(t, b, func() bool { return attacker.State() == ErrorActive }, 3000, "recovery")
	recoveredAfter := int64(b.Now() - busOffAt)
	want := int64(RecoverySequences * RecoveryIdleBits)
	if recoveredAfter < want || recoveredAfter > want+RecoveryIdleBits {
		t.Errorf("recovered after %d bits, want ≈%d", recoveredAfter, want)
	}
	if attacker.TEC() != 0 {
		t.Errorf("TEC after recovery = %d, want 0", attacker.TEC())
	}
	if attacker.Stats().Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", attacker.Stats().Recoveries)
	}
	// Bus-off aborted the pending request; the (persistent) application
	// re-submits and the attacker re-attacks.
	if attacker.PendingTx() != 0 {
		t.Error("bus-off must abort pending transmission requests")
	}
	if err := attacker.Enqueue(can.Frame{ID: 0x173, Data: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	spin(t, b, func() bool { return attacker.Stats().TxAttempts > 32 }, 200, "re-attack")
}

func TestBusOffKeepsMailboxCapacity(t *testing.T) {
	// Bus-off aborts the pending requests but keeps the mailbox's backing
	// arrays, zeroed, so a persistent attacker re-submitting after every
	// recovery does not re-grow them. Enqueue then allocates nothing: the
	// queued frame points at the payload its compiled plan holds.
	b := bus.New(bus.Rate500k)
	attacker := newTestController("attacker", nil)
	b.Attach(attacker)
	b.Attach(newTestController("witness", nil))
	b.Attach(newJammer(13, 20))
	frame := can.Frame{ID: 0x173, Data: make([]byte, 8)}
	const queued = 4
	for i := 0; i < queued; i++ {
		if err := attacker.Enqueue(frame); err != nil {
			t.Fatal(err)
		}
	}
	spin(t, b, func() bool { return attacker.State() == BusOff }, 5000, "bus-off")
	q := &attacker.queue
	if q.len() != 0 || cap(q.frames) < queued || cap(q.plans) < queued {
		t.Fatalf("after bus-off: %d queued, capacity %d frames / %d plans; want 0 queued, capacity >= %d",
			q.len(), cap(q.frames), cap(q.plans), queued)
	}
	for i, f := range q.frames[:cap(q.frames)] {
		if f.Data != nil || q.plans[:cap(q.plans)][i] != nil {
			t.Fatalf("dropped mailbox slot %d still pins its frame or plan", i)
		}
	}
	spin(t, b, func() bool { return attacker.State() == ErrorActive }, 3000, "recovery")
	// One warm-up call plus queued-1 measured ones fill the kept capacity.
	allocs := testing.AllocsPerRun(queued-1, func() {
		if err := attacker.Enqueue(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Enqueue after bus-off recovery allocates %v times, want 0", allocs)
	}
}

func TestNoAutoRecoverStaysBusOff(t *testing.T) {
	b := bus.New(bus.Rate500k)
	attacker := New(Config{Name: "attacker", AutoRecover: false})
	witness := newTestController("witness", nil)
	jam := newJammer(13, 20)
	b.Attach(attacker)
	b.Attach(witness)
	b.Attach(jam)

	if err := attacker.Enqueue(can.Frame{ID: 0x173, Data: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	spin(t, b, func() bool { return attacker.State() == BusOff }, 5000, "bus-off")
	b.Run(5 * RecoverySequences * RecoveryIdleBits)
	if attacker.State() != BusOff {
		t.Error("node with AutoRecover=false must stay bus-off")
	}
}

func TestReceiverRECTracksErrors(t *testing.T) {
	// Witness receivers on the bus increment REC per destroyed frame and
	// decrement it on successful receptions.
	b := bus.New(bus.Rate500k)
	attacker := newTestController("attacker", nil)
	witness := newTestController("witness", nil)
	jam := newJammer(13, 20)
	b.Attach(attacker)
	b.Attach(witness)
	b.Attach(jam)

	if err := attacker.Enqueue(can.Frame{ID: 0x173, Data: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	spin(t, b, func() bool { return attacker.State() == BusOff }, 5000, "bus-off")
	if witness.REC() == 0 {
		t.Error("witness REC should have grown during the attack")
	}
	if witness.REC() > 64 {
		t.Errorf("witness REC = %d, unexpectedly high", witness.REC())
	}
}

func TestAckErrorSoleNode(t *testing.T) {
	// A transmitter alone on the bus gets no ACK: TEC grows by 8 per attempt
	// until error-passive, where the ISO exception freezes it — the node
	// must never reach bus-off from ACK errors alone.
	b := bus.New(bus.Rate500k)
	solo := newTestController("solo", nil)
	b.Attach(solo)

	if err := solo.Enqueue(can.Frame{ID: 0x100, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	b.Run(30_000)
	if solo.State() == BusOff {
		t.Fatal("sole transmitter reached bus-off from ACK errors")
	}
	if solo.State() != ErrorPassive {
		t.Errorf("sole transmitter state = %v, want error-passive", solo.State())
	}
	if solo.TEC() != 128 {
		t.Errorf("TEC = %d, want frozen at 128", solo.TEC())
	}
	if solo.Stats().TxErrors[AckError] < 10 {
		t.Errorf("expected many ACK errors, got %d", solo.Stats().TxErrors[AckError])
	}
}

func TestWireBitFlipCausesSingleErrorNotBusOff(t *testing.T) {
	// Sec. IV-E: a sporadic bit flip can make a legitimate frame look
	// malicious for one attempt, but a single error never approaches the 32
	// consecutive errors needed for bus-off — no false-positive bus-off.
	b := bus.New(bus.Rate500k)
	tx := newTestController("tx", nil)
	var rx recorder
	rxc := New(Config{Name: "rx", AutoRecover: true, OnReceive: rx.onReceive})
	glitch := &oneShotGlitch{at: 40}
	b.Attach(tx)
	b.Attach(rxc)
	b.Attach(glitch)

	if err := tx.Enqueue(can.Frame{ID: 0x300, Data: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	b.Run(600)
	if tx.Stats().TxSuccess != 1 {
		t.Fatalf("frame never got through after the glitch")
	}
	if tx.TEC() >= 8 {
		t.Errorf("TEC = %d after recovery; success should have decremented it", tx.TEC())
	}
	if tx.State() != ErrorActive {
		t.Errorf("state = %v, want error-active", tx.State())
	}
	if len(rx.frames) != 1 {
		t.Errorf("receiver saw %d frames, want exactly 1 (no duplicate delivery)", len(rx.frames))
	}
}

// oneShotGlitch forces one dominant bit at an absolute bus time, emulating a
// transient fault on the wire.
type oneShotGlitch struct {
	at bus.BitTime
}

func (g *oneShotGlitch) Drive(t bus.BitTime) can.Level {
	if t == g.at {
		return can.Dominant
	}
	return can.Recessive
}

func (g *oneShotGlitch) Observe(bus.BitTime, can.Level) {}
