package fsm

import "michican/internal/can"

// Cursor is a non-mutating streaming walker over an FSM. The defense core
// uses it to pre-scan a proposed run of bits (the bus contend rung's
// PassiveRun query) without disturbing the FSM's own streaming state: the
// proposal may be discarded, and only a later ObserveRun commits it.
type Cursor struct {
	f    *FSM
	eval int32
	done Decision
}

// Cursor returns a walker positioned at the FSM's current streaming state.
func (f *FSM) Cursor() Cursor {
	return Cursor{f: f, eval: f.eval, done: f.done}
}

// RootCursor returns a walker positioned at the machine's start state — the
// state Reset establishes — regardless of the FSM's current streaming
// position. The defense core uses it to pre-scan a span that begins at a
// frame's SOF, where the real FSM would be reset before stepping.
func (f *FSM) RootCursor() Cursor {
	return Cursor{f: f, eval: 0, done: f.nodes[0].decision}
}

// Step consumes the next ID bit exactly as FSM.Step would, but only the
// cursor moves.
func (cu *Cursor) Step(bit can.Level) Decision {
	if cu.done != Undecided {
		return cu.done
	}
	next := cu.f.nodes[cu.eval].child[bit&1]
	cu.eval = next
	cu.done = cu.f.nodes[next].decision
	return cu.done
}

// Decided returns the cursor's decision so far.
func (cu *Cursor) Decided() Decision { return cu.done }

// Restore sets the FSM's streaming state to the cursor's position — the
// inverse of Cursor(). The defense core's splice fast path walks a compiled
// window with a cursor once, memoizes the exit position, and on later cache
// hits restores the FSM directly instead of re-stepping every ID bit. The
// cursor must have been derived from this FSM.
func (f *FSM) Restore(cu Cursor) {
	f.eval = cu.eval
	f.done = cu.done
}
