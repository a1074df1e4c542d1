package attack

import (
	"michican/internal/bus"
	"michican/internal/can"
)

var (
	_ bus.RunObserver      = (*Attacker)(nil)
	_ bus.ContendCommitter = (*Attacker)(nil)
)

// policyHorizon returns the earliest bit at which the injection policy may
// act (Tick is a pure no-op strictly before it), or now when the policy
// lacks the quiescence capability. Tick takes no bus level, so its promise
// holds over busy spans exactly as over idle ones. The mailbox depth it is
// conditioned on can now change on a span's final bit (a frame's last EOF
// bit commits, and txSuccess drains the queue there), but that matches the
// exact path bit for bit: per-bit Tick runs before the controller consumes
// the bit, so even there the depth change at bit T is first visible to the
// Tick at T+1 — which lies past the span either way.
func (a *Attacker) policyHorizon(now bus.BitTime) bus.BitTime {
	qp, ok := a.policy.(QuiescentPolicy)
	if !ok {
		return now
	}
	return qp.QuiescentUntil(now, a.ctl.PendingTx())
}

// ContendBits implements bus.ContendCommitter: the controller's commitment
// (mid-frame stream, pending SOF or error-flag run), clamped below the
// policy's next action so the injection runs on an exact step — the
// attacker's controller is compliant, so its mid-frame stream is as
// predictable as anyone's.
func (a *Attacker) ContendBits(now bus.BitTime) ([]can.Level, bus.BitTime) {
	bits, h := a.ctl.ContendBits(now)
	if h <= now || len(bits) == 0 {
		return nil, now
	}
	if hp := a.policyHorizon(now); hp < h {
		if hp <= now {
			return nil, now
		}
		h = hp
		bits = bits[:int64(h-now)]
	}
	return bits, h
}

// ContendFrameBit implements bus.ContendCommitter.
func (a *Attacker) ContendFrameBit() int { return a.ctl.ContendFrameBit() }

// PassiveRun implements bus.RunObserver: the controller's answer, clamped
// below the policy's next action (an injection changes the mailbox and with
// it the controller's drive decisions, so that bit must be exact-stepped).
func (a *Attacker) PassiveRun(now bus.BitTime, frameBit int, levels []can.Level) int {
	n := len(levels)
	if hp := a.policyHorizon(now); hp < now+bus.BitTime(n) {
		if hp <= now {
			return 0
		}
		n = int(hp - now)
	}
	if k := a.ctl.PassiveRun(now, frameBit, levels[:n]); k < n {
		n = k
	}
	return n
}

// ObserveRun implements bus.RunObserver. Spans are clamped inside the
// policy's quiet window, where Tick is a promised no-op, so only the
// controller advances.
func (a *Attacker) ObserveRun(from bus.BitTime, levels []can.Level) {
	a.ctl.ObserveRun(from, levels)
}
