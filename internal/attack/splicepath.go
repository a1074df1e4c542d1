package attack

import "michican/internal/bus"

var _ bus.Splicing = (*Attacker)(nil)

// SpliceOffer implements bus.Splicing: the compiled-splice tier is
// indifferent to intent, so the attacker's compliant controller may offer its
// own window — provided the injection policy promises to be a no-op across
// it, because Tick never runs on the splice path. (A window the defense would
// counterattack is declined at query time by the defense itself, exactly as
// the lower tiers decline it.)
func (a *Attacker) SpliceOffer(now bus.BitTime) *bus.SpliceWindow {
	win := a.ctl.SpliceOffer(now)
	if win == nil || a.policyHorizon(now) < now+bus.BitTime(len(win.Resolved)) {
		return nil
	}
	return win
}

// SpliceQuery implements bus.Splicing: the controller's promise, gated on the
// policy sleeping through the whole window (an injection inside it would
// change the mailbox mid-window, which only exact stepping reproduces).
func (a *Attacker) SpliceQuery(now bus.BitTime, w *bus.SpliceWindow) (bool, bool) {
	if a.policyHorizon(now) < now+bus.BitTime(len(w.Resolved)) {
		return false, false
	}
	return a.ctl.SpliceQuery(now, w)
}

// SpliceApply implements bus.Splicing. The offer/query gates promised the
// policy a no-op over the window, so only the controller advances.
func (a *Attacker) SpliceApply(now bus.BitTime, w *bus.SpliceWindow) {
	a.ctl.SpliceApply(now, w)
}

// SpliceCommit implements bus.Splicing.
func (a *Attacker) SpliceCommit(now bus.BitTime, w *bus.SpliceWindow) {
	a.ctl.SpliceCommit(now, w)
}
