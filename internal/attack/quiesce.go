package attack

import "michican/internal/bus"

// QuiescentPolicy is an optional capability an injection Policy implements
// to let the attacker's bus node participate in idle fast-forwarding.
//
// QuiescentUntil(now, pending) promises that, given the mailbox depth stays
// at pending and the bus stays recessive, Tick appends nothing (and mutates
// nothing) for every bit in [now, horizon). A policy with a scheduled
// injection returns its due bit so that bit is exact-stepped and Tick runs
// there, exactly as in per-bit mode. Policies without the capability pin the
// attacker's bus to exact stepping.
type QuiescentPolicy interface {
	QuiescentUntil(now bus.BitTime, pending int) bus.BitTime
}

var (
	_ bus.Quiescent   = (*Attacker)(nil)
	_ QuiescentPolicy = (*Flood)(nil)
	_ QuiescentPolicy = (*RandomDoS)(nil)
	_ QuiescentPolicy = (*Toggle)(nil)
	_ QuiescentPolicy = (*Masquerade)(nil)
)

// QuiescentUntil implements bus.Quiescent: the attacker is quiescent until
// either its injection policy wants to run or its controller has work.
func (a *Attacker) QuiescentUntil(now bus.BitTime) bus.BitTime {
	qp, ok := a.policy.(QuiescentPolicy)
	if !ok {
		return now
	}
	h := qp.QuiescentUntil(now, a.ctl.PendingTx())
	if hc := a.ctl.QuiescentUntil(now); hc < h {
		h = hc
	}
	return h
}

// SkipIdle implements bus.Quiescent. Policies carry no per-bit state over a
// quiescent run (their horizons guarantee Tick would have been a no-op), so
// only the controller advances.
func (a *Attacker) SkipIdle(from, to bus.BitTime) {
	a.ctl.SkipIdle(from, to)
}

// QuiescentUntil implements QuiescentPolicy. A periodic flood sleeps until
// its next due bit; a back-to-back flood re-arms the moment the mailbox
// drains, so it is only quiescent while a frame is still pending (and the
// controller pins the bus for as long as that matters).
func (f *Flood) QuiescentUntil(now bus.BitTime, pending int) bus.BitTime {
	if f.PeriodBits > 0 {
		if f.nextDue <= now {
			return now
		}
		return f.nextDue
	}
	if pending == 0 {
		return now
	}
	return bus.QuiescentForever
}

// QuiescentUntil implements QuiescentPolicy: sleep until the next periodic
// draw (the RNG is only consumed inside Tick, at an exact step).
func (r *RandomDoS) QuiescentUntil(now bus.BitTime, _ int) bus.BitTime {
	if r.nextDue <= now {
		return now
	}
	return r.nextDue
}

// QuiescentUntil implements QuiescentPolicy: a toggler fires as soon as the
// mailbox drains, so it pins the bus exactly then.
func (g *Toggle) QuiescentUntil(now bus.BitTime, pending int) bus.BitTime {
	if len(g.Frames) == 0 {
		return bus.QuiescentForever
	}
	if pending == 0 {
		return now
	}
	return bus.QuiescentForever
}

// QuiescentUntil implements QuiescentPolicy: the active phase's horizon,
// clamped at the phase switch so Tick's delegation flips during an exact
// step.
func (m *Masquerade) QuiescentUntil(now bus.BitTime, pending int) bus.BitTime {
	active := m.Fabricate
	if now < m.SwitchBit {
		active = m.Suspend
	}
	qp, ok := active.(QuiescentPolicy)
	if !ok {
		return now
	}
	h := qp.QuiescentUntil(now, pending)
	if now < m.SwitchBit && m.SwitchBit < h {
		h = m.SwitchBit
	}
	return h
}
