package core

import (
	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/fsm"
	"michican/internal/mcu"
	"michican/internal/telemetry"
)

var (
	_ bus.Splicing = (*ECU)(nil)
	_ bus.Splicing = (*Defense)(nil)
)

// spliceIndexPageBits sizes a spliceIndex page: 64 entries, 1.5 KiB.
const spliceIndexPageBits = 6

// spliceIndexMax bounds the PlanIDs the index addresses, matching the
// largest plan source (2^17 plans), so the page table holds at most 2^11
// pointers; a window numbered past it compiles uncached.
const spliceIndexMax = 1 << 17

// spliceIndex holds the defense's compiled summaries by the offered
// window's PlanID, in pages allocated as offers reach them, so a defense
// that sees a handful of windows holds a page or two and one that sees a
// matrix's full rolling-counter rotation holds one entry per plan. Nothing
// is evicted; a lookup is a pointer chase, with no hashing and no
// conflicts. Unnumbered windows (PlanID -1) compile on every offer and
// never grow the index. The summaries themselves live in slab chunks.
type spliceIndex struct {
	pages []*[1 << spliceIndexPageBits]spliceEntry
	slab  []spliceSummary // the open chunk; entries point into it
	// resets counts entries recompiled because a window with their id
	// carried another span.
	resets int64
}

// Slab chunks grow from slabFirst summaries by doubling up to slabMax, so
// a defense that compiles a handful of windows holds a small chunk and one
// that compiles thousands pays one allocation per slabMax of them.
const (
	slabFirst = 4
	slabMax   = 256
)

// keep copies s into the slab and returns its address, stable for the
// defense's lifetime: a full chunk is left to the entries pointing into it
// and a new one opens.
func (x *spliceIndex) keep(s *spliceSummary) *spliceSummary {
	if len(x.slab) == cap(x.slab) {
		x.slab = make([]spliceSummary, 0, min(max(2*cap(x.slab), slabFirst), slabMax))
	}
	x.slab = append(x.slab, *s)
	return &x.slab[len(x.slab)-1]
}

// spliceEntry is one window's compiled summaries, one per SelfTransmitting
// answer — the only live input the in-window walk consults. span is the
// first level of the resolved span they were compiled for: offerers number
// their windows independently (each plan source counts from 0), so a
// same-id window with another span recompiles instead of inheriting the
// entry. A nil summary is not compiled yet; declinedSplice marks a window
// known to be unsummarizable, so repeat offers skip the walk.
type spliceEntry struct {
	span *can.Level
	sums [2]*spliceSummary
}

// declinedSplice is the shared summary of every window compileSplice
// declined.
var declinedSplice = new(spliceSummary)

// entry returns w's index entry, reset when it was compiled for another
// span, or nil when w is unnumbered or numbered past the index bound.
func (x *spliceIndex) entry(w *bus.SpliceWindow) *spliceEntry {
	id := int(w.PlanID)
	if id < 0 || id >= spliceIndexMax {
		return nil
	}
	pg := id >> spliceIndexPageBits
	if pg >= len(x.pages) {
		x.pages = append(x.pages, make([]*[1 << spliceIndexPageBits]spliceEntry, pg+1-len(x.pages))...)
	}
	page := x.pages[pg]
	if page == nil {
		page = new([1 << spliceIndexPageBits]spliceEntry)
		x.pages[pg] = page
	}
	e := &page[id&(1<<spliceIndexPageBits-1)]
	if span := &w.Resolved[0]; e.span != span {
		if e.span != nil {
			x.resets++
		}
		*e = spliceEntry{span: span}
	}
	return e
}

// slots returns the number of entries the index has room for.
func (x *spliceIndex) slots() int {
	n := 0
	for _, pg := range x.pages {
		if pg != nil {
			n += len(pg)
		}
	}
	return n
}

// spliceSummary is the precompiled effect of one whole resolved frame window
// on a defense entering from the synced-idle baseline (out of frame, cnt_sof
// at or past the SOF threshold): the per-class invocation counts Algorithm 1
// would have charged, the FSM state at frame exit, the detection outcome, and
// the cnt_sof the trailing bits leave behind. Applying it is bit-identical to
// ObserveRun over the window — dead fields (cnt, the stuff tracker, idBits,
// postID, extFlag) are reset by the next beginFrame before anything reads
// them, so the summary does not carry them.
type spliceSummary struct {
	trackN    int64 // stuff-track-class invocations (incl. the strike bit)
	idStoreN  int64 // ID bits stored after the FSM decided
	idStepN   int64 // ID bits stepped through the FSM
	idleN     int64 // out-of-frame invocations after the defense left the frame
	exitSOF   int   // cnt_sof at the window's last bit
	cursor    fsm.Cursor
	flagged   bool // the FSM reached Malicious inside the ID
	flaggedAt int  // decision position (1-11), valid when flagged
	strikeOff int  // window offset of the strike decision, valid when flagged
}

// spliceQuery answers the bus's whole-window passivity question for the
// defense half: with the TX pin released, the defense must stay passive over
// every bit of the resolved window. From the synced-idle baseline that is
// exactly the question compileSplice answers — a summary exists iff the walk
// never pulls the pin and exits clean — so the memoized summary doubles as
// the promise, and the apply that follows reuses it. Off the baseline the
// generic passive scan decides. Any decline falls through to the lower
// tiers.
func (d *Defense) spliceQuery(w *bus.SpliceWindow, self bool) bool {
	if d.mux.DriveLevel() == can.Dominant {
		return false
	}
	if !d.armed {
		return true
	}
	if d.inFrame || d.cntSOF < can.IdleForSOF {
		return d.passiveScan(0, w.Resolved, self) == len(w.Resolved)
	}
	return d.spliceSummaryFor(w, self) != nil
}

// spliceApply folds one accepted window into the defense. From the
// synced-idle baseline the precompiled summary advances everything in O(1);
// from any other entry state (hunting below the SOF threshold, or mid-frame)
// the exact ObserveRun machinery runs instead — spliceQuery accepted the
// whole window, so ObserveRun is passive over it and remains bit-exact. The
// splice never depends on the summary for correctness, only for speed.
func (d *Defense) spliceApply(now bus.BitTime, w *bus.SpliceWindow, self bool) {
	resolved := w.Resolved
	if !d.armed {
		d.mux.LatchRX(resolved[len(resolved)-1])
		return
	}
	if d.inFrame || d.cntSOF < can.IdleForSOF {
		d.ObserveRun(now, resolved)
		return
	}
	s := d.spliceSummaryFor(w, self)
	if s == nil {
		d.ObserveRun(now, resolved)
		return
	}

	// SOF bit: one idle-class invocation that hard-synchronizes (Charge
	// ISR+ReadRX, onIdleBit's IdleTrack, beginFrame's FrameReset) and counts
	// the frame. Entry cnt_sof past the threshold behaves identically to
	// exactly at it, so the summary holds for the whole baseline class.
	d.stats.FramesObserved++
	m := d.meter
	base := m.OpCost(mcu.OpISREnterExit) + m.OpCost(mcu.OpReadRX)
	m.ChargeInvocationsAs(1, base+m.OpCost(mcu.OpIdleTrack)+m.OpCost(mcu.OpFrameReset), false)

	// In-frame bits, folded per handler-cost class exactly as frameRunBatch
	// folds them (the strike bit costs base+StuffTrack when no pull launches,
	// so it rides in the track class).
	track := base + m.OpCost(mcu.OpStuffTrack)
	m.ChargeInvocationsAs(s.trackN, track, true)
	store := track + m.OpCost(mcu.OpFrameStore)
	m.ChargeInvocationsAs(s.idStoreN, store, true)
	m.ChargeInvocationsAs(s.idStepN, store+m.FSMStepCostOf(d.cfg.FSM.Size()), true)

	// Out-of-frame remainder after the defense left the frame.
	m.ChargeIdleInvocations(s.idleN, mcu.OpISREnterExit, mcu.OpReadRX, mcu.OpIdleTrack)

	d.cfg.FSM.Restore(s.cursor)
	if s.flagged {
		d.detectedAt = s.flaggedAt
		if !self {
			// Detection-only verdict (a prevention launch would have declined
			// the splice at query time): record it at the strike bit's time.
			t := now + bus.BitTime(s.strikeOff)
			d.stats.Detections++
			d.stats.DetectionBitsSum += s.flaggedAt
			if s.flaggedAt > d.stats.DetectionBitsMax {
				d.stats.DetectionBitsMax = s.flaggedAt
			}
			d.tel.Emit(int64(t), telemetry.EvDetect, int64(s.flaggedAt), 0)
			if d.cfg.OnDetect != nil {
				d.cfg.OnDetect(t, s.flaggedAt)
			}
		}
	}
	d.cntSOF = s.exitSOF
	d.mux.LatchRX(resolved[len(resolved)-1])
}

// spliceSummaryFor returns the window's summary, compiling it into the
// defense's index on first sight (see spliceIndex); an unnumbered window
// compiles uncached. A nil return means the window is not summarizable from
// the baseline, which spliceQuery reports as a decline; the exact fallback
// in spliceApply keeps that reasoning non-load-bearing.
func (d *Defense) spliceSummaryFor(w *bus.SpliceWindow, self bool) *spliceSummary {
	e := d.splices.entry(w)
	if e == nil {
		var s spliceSummary
		if !d.compileSplice(&s, w.Resolved, self) {
			return nil
		}
		return &s
	}
	k := 0
	if self {
		k = 1
	}
	s := e.sums[k]
	if s == nil {
		var c spliceSummary
		if d.compileSplice(&c, w.Resolved, self) {
			s = d.splices.keep(&c)
		} else {
			s = declinedSplice
		}
		e.sums[k] = s
	}
	if s == declinedSplice {
		return nil
	}
	return s
}

// compileSplice walks the resolved window through Algorithm 1 from the
// post-SOF baseline — stuff tracker seeded with the dominant SOF, FSM at its
// root, flags clear — on value copies, recording the per-class invocation
// counts and the exit state. It mirrors frameRunBatch's control flow bit for
// bit, filling s, and returns false for any window whose walk would mutate
// beyond the summary's vocabulary (a pull launch, a stuff violation, a walk
// that ends still in-frame, or a trailing run long enough to depend on the
// entry cnt_sof).
func (d *Defense) compileSplice(s *spliceSummary, resolved []can.Level, self bool) bool {
	if len(resolved) == 0 || resolved[0] != can.Dominant {
		return false // a window not anchored at a SOF is no frame window
	}
	var destuf can.Destuffer
	destuf.Reset()
	destuf.Next(can.Dominant) // the SOF bit seeds the tracker
	cur := d.cfg.FSM.RootCursor()
	idBits, postID := 0, 0
	extFlag, attackFlag := false, false
	inFrame := true
	i := 1
	for i < len(resolved) && inFrame {
		level := resolved[i]
		i++
		payload, err := destuf.Next(level)
		if err != nil {
			return false // six equal levels inside a plan window: not a plan
		}
		if !payload {
			s.trackN++
			continue
		}
		if idBits < can.IDBits {
			idBits++
			if !attackFlag && cur.Decided() == fsm.Undecided {
				s.idStepN++
				if cur.Step(level) == fsm.Malicious {
					attackFlag = true
					s.flaggedAt = idBits
				}
			} else {
				s.idStoreN++
			}
			continue
		}
		postID++
		if !d.cfg.ExtendedAware {
			if attackFlag && d.cfg.PreventionEnabled && !self {
				return false // the pull would launch: the query declines this
			}
			s.trackN++
			s.strikeOff = i - 1
			inFrame = false
			continue
		}
		switch {
		case postID == 1:
			s.trackN++ // RTR/SRR: waiting for the IDE bit
		case postID == 2:
			s.trackN++
			if level == can.Dominant {
				if attackFlag && d.cfg.PreventionEnabled && !self {
					return false
				}
				s.strikeOff = i - 1
				inFrame = false
			} else {
				extFlag = true
				if !attackFlag {
					inFrame = false // benign extended frame: endFrame here
				}
			}
		case extFlag && postID == 2+can.ExtLowBits+1:
			if attackFlag && d.cfg.PreventionEnabled && !self {
				return false
			}
			s.trackN++
			s.strikeOff = i - 1
			inFrame = false
		default:
			s.trackN++
		}
	}
	if inFrame {
		return false // ran off the window mid-frame: not a whole-frame plan
	}
	s.cursor = cur
	s.flagged = attackFlag
	s.idleN = int64(len(resolved) - i)
	run := 0
	for j := len(resolved) - 1; j >= i && resolved[j] == can.Recessive; j-- {
		run++
	}
	if int64(run) == s.idleN {
		// An all-recessive remainder accumulates onto the entry cnt_sof; the
		// dominant ACK makes this unreachable for real windows, but a window
		// that hits it is simply left to the exact path.
		return false
	}
	s.exitSOF = run
	return true
}

// SpliceOffer implements bus.Splicing for a standalone Defense: it never
// transmits frames, so it never offers.
func (d *Defense) SpliceOffer(bus.BitTime) *bus.SpliceWindow { return nil }

// SpliceQuery implements bus.Splicing: the defense never acks (it is not a
// CAN node in the protocol sense).
func (d *Defense) SpliceQuery(_ bus.BitTime, w *bus.SpliceWindow) (bool, bool) {
	return d.spliceQuery(w, d.selfNow()), false
}

// SpliceApply implements bus.Splicing.
func (d *Defense) SpliceApply(now bus.BitTime, w *bus.SpliceWindow) {
	d.spliceApply(now, w, d.selfNow())
}

// SpliceCommit implements bus.Splicing. Unreachable — the defense never
// offers — but exact if it ever ran.
func (d *Defense) SpliceCommit(now bus.BitTime, w *bus.SpliceWindow) {
	d.ObserveRun(now, w.Resolved)
}

// SpliceOffer implements bus.Splicing for a defended ECU: the controller's
// offer, gated on the defense sitting at the synced-idle baseline with its TX
// pin released. The bus never queries the offerer, so the gate is what
// guarantees the defense absorbs its host's own window — from the baseline
// with self true the scan always accepts (the strike decision suppresses on
// SelfTransmitting), and the commit-side fold takes the summary path.
func (e *ECU) SpliceOffer(now bus.BitTime) *bus.SpliceWindow {
	win := e.Controller.SpliceOffer(now)
	if win == nil || e.Defense == nil {
		return win
	}
	d := e.Defense
	if d.mux.DriveLevel() == can.Dominant {
		return nil
	}
	if d.armed && (d.inFrame || d.cntSOF < can.IdleForSOF) {
		return nil
	}
	return win
}

// SpliceQuery implements bus.Splicing: both halves must promise passivity;
// the ack promise is the controller's alone.
func (e *ECU) SpliceQuery(now bus.BitTime, w *bus.SpliceWindow) (bool, bool) {
	ok, acks := e.Controller.SpliceQuery(now, w)
	if !ok {
		return false, false
	}
	if e.Defense != nil && !e.Defense.spliceQuery(w, e.Defense.selfNow()) {
		return false, false
	}
	return true, acks
}

// SpliceApply implements bus.Splicing, preserving the controller-then-defense
// order ObserveRun uses. The self answer is latched before the controller
// folds its half: the controller is a receiver over this window on both
// sides of the fold, so the answer is window-invariant either way.
func (e *ECU) SpliceApply(now bus.BitTime, w *bus.SpliceWindow) {
	var self bool
	if e.Defense != nil {
		self = e.Defense.selfNow()
	}
	e.Controller.SpliceApply(now, w)
	if e.Defense != nil {
		e.Defense.spliceApply(now, w, self)
	}
}

// SpliceCommit implements bus.Splicing: the controller completes its own
// transmission, and the defense folds the window with self true — on the
// exact path the host controller answers SelfTransmitting at the mid-frame
// strike bit, and over a committed splice it is the transmitter throughout.
func (e *ECU) SpliceCommit(now bus.BitTime, w *bus.SpliceWindow) {
	e.Controller.SpliceCommit(now, w)
	if e.Defense != nil {
		e.Defense.spliceApply(now, w, true)
	}
}
