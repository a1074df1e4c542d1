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

// Position is a streaming state on its own: the node a cursor stands on
// and its decision so far, with no machine attached. It is valid on every
// FSM with the same image (Marshal), so a position taken on one machine
// restores another built from the same detection set.
type Position struct {
	eval int32
	done Decision
}

// Position returns the cursor's position.
func (cu *Cursor) Position() Position { return Position{eval: cu.eval, done: cu.done} }

// Restore sets the FSM's streaming state to p. The defense core's splice
// fast path walks a compiled window with a cursor once, keeps the exit
// position, and on later hits restores the FSM directly instead of
// re-stepping every ID bit. p must come from this FSM or one with the same
// image.
func (f *FSM) Restore(p Position) {
	f.eval = p.eval
	f.done = p.done
}
