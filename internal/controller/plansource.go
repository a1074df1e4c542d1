package controller

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"michican/internal/can"
)

// PlanSource is a content-addressed, concurrency-safe cache of compiled
// transmission plans. A fleet of vehicles stamped from the same
// communication matrix transmits the same frame population — tens of IDs
// times a 256-value rolling-counter rotation — and, as an OEM compiles each
// ECU's artefacts once from the comm matrix, a PlanSource wired into N
// controllers compiles each distinct frame once: it hands every controller
// the same immutable plan (wire bits, stuff map, ACK index, resolved splice
// span), never written after publication. Periodic messages resolve through
// rolling-counter tables (see Rolling), so a vehicle's schedule keeps one
// pointer per message instead of per-instance handles.
//
// A controller with no source wired compiles through a private one of its
// own, created on first use — the same code path at a per-controller cap.
// Sharing is purely a memory/compile-time optimization: a plan's content
// depends only on the frame, so a controller behaves bit-identically with
// and without a shared source — the fleet determinism tests pin exactly
// that.
//
// A source also carries what the layer above the controller derives from
// the same offline compilation (Side): the defense's splice summaries are
// keyed by the plan ids this source hands out, so they share its lifetime
// and its fleet.
type PlanSource struct {
	mu    sync.RWMutex
	plans map[planKey]*txPlan
	rolls map[rollKey]*Rolling
	side  any
	// max caps the published plans (zero: planSourceMax) and, at one table
	// per 256 plans, the rolling tables.
	max int
	// hits/misses count resolutions served from the tables vs. built (first
	// sight); bytes approximates the resident size of everything published.
	// All are read lock-free by Stats.
	hits   atomic.Int64
	misses atomic.Int64
	bytes  atomic.Int64
}

// planSourceMax bounds a shared source. It is sized an order of magnitude
// above a realistic matrix's full rotation; past it new plans are served
// unpublished rather than resetting (a reset would re-serialize across the
// whole fleet at once).
const planSourceMax = 1 << 17

// planCacheMax bounds a controller's private source. Periodic traffic cycles
// a small message set, but payloads commonly carry an 8-bit rolling counter,
// multiplying the distinct-frame population by up to 256 per ID; the cap
// holds a realistic matrix's full rotation (tens of IDs × 256) and only
// binds on adversarial workloads, which then compile past it, served by the
// controller's front cache.
const planCacheMax = 16384

// NewPlanSource creates an empty shared plan cache.
func NewPlanSource() *PlanSource { return &PlanSource{} }

// limit returns the source's plan cap.
func (s *PlanSource) limit() int {
	if s.max > 0 {
		return s.max
	}
	return planSourceMax
}

// PlanSourceStats is a point-in-time snapshot of a source's counters.
type PlanSourceStats struct {
	// Hits counts plan resolutions served from the shared tables; Misses
	// counts first-sight builds. Each controller counts one resolution per
	// distinct frame it compiles (a rolling-table reuse is a hit), so with N
	// vehicles over one matrix the steady hit rate approaches (N-1)/N.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Plans is the number of distinct compiled plans resident.
	Plans int `json:"plans"`
	// ResidentBytes approximates the memory held by the source: each plan's
	// footprint (a base plan's one allocation, or an extended plan's struct
	// and arrays) and the rolling-counter tables with their payloads (one
	// copy fleet-wide, however many controllers use them).
	ResidentBytes int64 `json:"resident_bytes"`
}

// Stats returns the source's counters.
func (s *PlanSource) Stats() PlanSourceStats {
	if s == nil {
		return PlanSourceStats{}
	}
	s.mu.RLock()
	n := len(s.plans)
	s.mu.RUnlock()
	return PlanSourceStats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Plans:         n,
		ResidentBytes: s.bytes.Load(),
	}
}

// HitRate returns Hits / (Hits + Misses), or zero before any resolution.
func (s *PlanSource) HitRate() float64 {
	st := s.Stats()
	if total := st.Hits + st.Misses; total > 0 {
		return float64(st.Hits) / float64(total)
	}
	return 0
}

// plan resolves the plan for a classical frame (the caller has already
// excluded FD and oversize frames), counting a hit or a miss when count is
// set. The first build of each key wins the publication race, so every
// controller ends up with the same plan; at the cap the build is returned
// unpublished. Only the build that is served counts a miss: a racer whose
// build lost to a published one adopts that plan and counts a hit, so the
// counters do not depend on how many workers raced.
func (s *PlanSource) plan(key planKey, f *can.Frame, count bool) *txPlan {
	s.mu.RLock()
	p := s.plans[key]
	s.mu.RUnlock()
	if p == nil {
		p = newTxPlan(*f)
		s.mu.Lock()
		if prev := s.plans[key]; prev != nil {
			p = prev
		} else {
			if len(s.plans) < s.limit() {
				if s.plans == nil {
					s.plans = make(map[planKey]*txPlan)
				}
				p.id = int32(len(s.plans))
				s.plans[key] = p
				s.bytes.Add(int64(p.size))
			}
			if count {
				s.misses.Add(1)
			}
			count = false
		}
		s.mu.Unlock()
	}
	if count {
		s.hits.Add(1)
	}
	return p
}

// Side returns the value the source carries for the defense layer,
// storing mk's result on first use. The value's type is that layer's, so
// the controller does not import it; the value lives as long as the source.
func (s *PlanSource) Side(mk func() any) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.side == nil {
		s.side = mk()
	}
	return s.side
}

// rollKey identifies a rolling-counter table.
type rollKey struct {
	id  can.ID
	dlc int8
}

// Rolling is the compiled rotation of one periodic base-format message
// whose first payload byte is an 8-bit rolling counter (the rest zero): its
// 256 payloads, built once, and the plan of each instance, resolved on first
// use and published first-build-wins. A source shares one table per (ID,
// DLC) across every controller on it; payloads and plans are immutable.
type Rolling struct {
	src      *PlanSource
	id       can.ID
	dlc      int
	payloads []byte // 256 × dlc; instance s is payloads[s*dlc:(s+1)*dlc]
	plans    [256]atomic.Pointer[txPlan]
}

// rolling returns the source's table for (id, dlc), creating it on first
// sight; past the cap the new table is returned unpublished.
func (s *PlanSource) rolling(id can.ID, dlc int) *Rolling {
	k := rollKey{id: id, dlc: int8(dlc)}
	s.mu.RLock()
	r := s.rolls[k]
	s.mu.RUnlock()
	if r != nil {
		return r
	}
	r = &Rolling{src: s, id: id, dlc: dlc, payloads: make([]byte, 256*dlc)}
	if dlc > 0 {
		for seq := 0; seq < 256; seq++ {
			r.payloads[seq*dlc] = byte(seq)
		}
	}
	s.mu.Lock()
	if prev := s.rolls[k]; prev != nil {
		r = prev
	} else if len(s.rolls) < s.limit()>>8 {
		if s.rolls == nil {
			s.rolls = make(map[rollKey]*Rolling)
		}
		s.rolls[k] = r
		s.bytes.Add(int64(unsafe.Sizeof(*r)) + int64(len(r.payloads)))
	}
	s.mu.Unlock()
	return r
}

// Instance returns the enqueue handle of rolling-counter instance seq,
// compiling its plan on first sight. A caller resolving seq for the first
// time sets first, which counts the resolution in the source's statistics
// (a hit when the plan was already compiled, by this table or through the
// content-addressed path); later resolutions of the same instance are free
// reads of the published plan. The frame's payload is the table's
// immutable slice for seq.
func (r *Rolling) Instance(seq byte, first bool) Planned {
	off := int(seq) * r.dlc
	f := can.Frame{ID: r.id, Data: r.payloads[off : off+r.dlc : off+r.dlc]}
	p := r.plans[seq].Load()
	if p == nil {
		p = r.src.plan(keyOf(&f), &f, first)
		if p.id >= 0 && !r.plans[seq].CompareAndSwap(nil, p) {
			p = r.plans[seq].Load()
		}
	} else if first {
		r.src.hits.Add(1)
	}
	return Planned{frame: f, plan: p}
}

// Verify checks the immutability contract fleet sharing rests on: every
// published plan still equals a fresh compilation of its frame, and every
// rolling table still holds its 256 payloads and, for each instance
// resolved so far, the plan of that payload. It returns the first
// violation found, or nil.
func (s *PlanSource) Verify() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, p := range s.plans {
		f := k.frame()
		if !samePlan(p, newTxPlan(f)) {
			return fmt.Errorf("controller: published plan of %v changed", f)
		}
	}
	for _, r := range s.rolls {
		for seq := 0; seq < 256; seq++ {
			off := seq * r.dlc
			f := can.Frame{ID: r.id, Data: r.payloads[off : off+r.dlc]}
			for i, b := range f.Data {
				if (i == 0 && b != byte(seq)) || (i > 0 && b != 0) {
					return fmt.Errorf("controller: rolling payload %d of %v changed", seq, r.id)
				}
			}
			if p := r.plans[seq].Load(); p != nil && !samePlan(p, newTxPlan(f)) {
				return fmt.Errorf("controller: rolling plan %d of %v changed", seq, r.id)
			}
		}
	}
	return nil
}

// frame returns the frame a key identifies.
func (k planKey) frame() can.Frame {
	f := can.Frame{ID: k.id, Extended: k.flags&1 != 0, Remote: k.flags&2 != 0, RequestLen: int(k.reqLen)}
	if k.dataLen > 0 {
		f.Data = append([]byte(nil), k.data[:k.dataLen]...)
	}
	return f
}

// samePlan reports whether two plans hold the same payload and
// serialization.
func samePlan(a, b *txPlan) bool {
	return slices.Equal(a.data, b.data) && slices.Equal(a.bits, b.bits) &&
		slices.Equal(a.isStuff, b.isStuff) && slices.Equal(a.resolved, b.resolved) &&
		a.arbEnd == b.arbEnd && a.ackIdx == b.ackIdx
}

// source returns the plan source this controller compiles through: the
// shared one when wired, otherwise its own, created on first use.
func (c *Controller) source() *PlanSource {
	if c.plans != nil {
		return c.plans
	}
	if c.own == nil {
		c.own = &PlanSource{max: planCacheMax}
	}
	return c.own
}

// Rolling returns the rolling-counter table of a periodic base-format
// message with the given ID and payload length, resolved through this
// controller's plan source, or nil when no classical base frame has that ID
// and length.
func (c *Controller) Rolling(id can.ID, dlc int) *Rolling {
	if !id.Valid() || dlc < 0 || dlc > can.MaxDataLen {
		return nil
	}
	return c.source().rolling(id, dlc)
}

// SetPlanSource wires a shared plan cache into this controller: subsequent
// serializations resolve through it, sharing the immutable plans with every
// other controller on the same source. Wiring (or rewiring) is safe at any
// quiescent point — plans already cached locally stay valid, and shared and
// locally built plans are bit-identical by construction.
func (c *Controller) SetPlanSource(s *PlanSource) { c.plans = s }

// PlanSource returns the wired shared plan cache, or nil.
func (c *Controller) PlanSource() *PlanSource { return c.plans }
