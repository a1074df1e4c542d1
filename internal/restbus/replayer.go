package restbus

import (
	"math"
	"math/rand"
	"time"

	"michican/internal/bus"
	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/telemetry"
)

// ReplayStats summarizes a replayer's delivery performance.
type ReplayStats struct {
	// Enqueued counts message instances scheduled.
	Enqueued int
	// Transmitted counts instances that made it onto the bus.
	Transmitted int
	// DeadlineMisses counts instances whose predecessor was still pending
	// when the next period arrived (the instance is dropped, as a real
	// mailbox overwrite would).
	DeadlineMisses int
	// MissByID breaks deadline misses down per message ID.
	MissByID map[can.ID]int
	// MaxLatencyBits is the worst observed queueing+transmission latency per
	// message ID, in bit times (enqueue to successful transmission) — the
	// empirical counterpart of the sched package's response-time analysis.
	MaxLatencyBits map[can.ID]int64
}

// Replayer injects a matrix's periodic traffic onto the bus through a single
// compliant controller — the paper's PCAN-USB restbus node. It implements
// bus.Node.
type Replayer struct {
	ctl   *controller.Controller
	rate  bus.Rate
	items []schedItem
	// byID maps a message ID to its index in items, for the per-transmission
	// completion callback; the per-bit schedule scan reads item fields only.
	byID map[can.ID]int
	// idIdx is byID flattened over the base-frame ID space (-1 = not
	// scheduled); extended IDs fall back to the map.
	idIdx [1 << can.IDBits]int16
	stats ReplayStats
	// nextScan caches the earliest nextDue across items, so the per-bit
	// Observe path is O(1) until a message actually comes due. Item deadlines
	// only move inside scanDue, which recomputes the cache, so nextScan is
	// always exact — never late.
	nextScan bus.BitTime
}

type schedItem struct {
	msg        Message
	periodBits int64
	nextDue    bus.BitTime
	seq        byte
	// outstanding is true while an instance of this message awaits
	// transmission; enqueuedAt is the bit time it was queued.
	outstanding bool
	enqueuedAt  bus.BitTime
	// maxLat accumulates the worst observed latency; Stats materializes the
	// per-ID map from it, keeping the per-transmission callback map-free.
	maxLat int64
	// roll is the message's compiled rolling-counter rotation — its 256
	// payload instances (the counter is the only varying byte) and their
	// plans — resolved through the controller's plan source on first
	// enqueue, so replayers on one shared source hold one table between
	// them and the schedule scan enqueues by direct pointer, without
	// allocating, validating or probing a plan cache per instance.
	roll *controller.Rolling
	// seen marks the counter values this replayer has resolved, so each
	// counts once in the source's hit statistics.
	seen [4]uint64
}

var (
	_ bus.Node      = (*Replayer)(nil)
	_ bus.Quiescent = (*Replayer)(nil)
)

// NewReplayer creates a restbus node for the matrix at the given bus rate.
// The rng, when non-nil, staggers the initial phase of each message (real
// ECUs do not boot in phase); a nil rng starts everything at time zero.
func NewReplayer(name string, m *Matrix, rate bus.Rate, rng *rand.Rand) *Replayer {
	r := &Replayer{
		rate:  rate,
		items: make([]schedItem, 0, len(m.Messages)),
		byID:  make(map[can.ID]int, len(m.Messages)),
	}
	r.ctl = controller.New(controller.Config{
		Name:                name,
		AutoRecover:         true,
		SortQueueByPriority: true,
		OnTransmit: func(t bus.BitTime, f can.Frame) {
			r.stats.Transmitted++
			i := r.itemIdx(f.ID)
			if i < 0 {
				return
			}
			item := &r.items[i]
			if item.outstanding {
				if lat := int64(t - item.enqueuedAt + 1); lat > item.maxLat {
					item.maxLat = lat
				}
			}
			item.outstanding = false
		},
	})
	for i := range r.idIdx {
		r.idIdx[i] = -1
	}
	for _, msg := range m.Messages {
		period := rate.Bits(msg.Period)
		if period < 1 {
			period = 1
		}
		item := schedItem{msg: msg, periodBits: period}
		if rng != nil {
			item.nextDue = bus.BitTime(rng.Int63n(period))
		}
		if int(msg.ID) < len(r.idIdx) {
			r.idIdx[msg.ID] = int16(len(r.items))
		}
		r.byID[msg.ID] = len(r.items)
		r.items = append(r.items, item)
	}
	r.nextScan = neverDue
	for i := range r.items {
		if r.items[i].nextDue < r.nextScan {
			r.nextScan = r.items[i].nextDue
		}
	}
	return r
}

// neverDue is the nextScan value of an empty matrix.
const neverDue = bus.BitTime(math.MaxInt64)

// itemIdx returns the items index scheduled for id, or -1.
func (r *Replayer) itemIdx(id can.ID) int {
	if int(id) < len(r.idIdx) {
		return int(r.idIdx[id])
	}
	if i, ok := r.byID[id]; ok {
		return i
	}
	return -1
}

// plannedFor returns the enqueue handle for the item's given rolling-counter
// value, resolving the message's rolling table on first use. Matrix messages
// are classical base frames, so planning cannot fail; the zero handle is
// returned only for a malformed message, which the enqueue path then skips
// exactly as Enqueue would have rejected it.
func (r *Replayer) plannedFor(item *schedItem, seq byte) controller.Planned {
	if item.roll == nil {
		if item.roll = r.ctl.Rolling(item.msg.ID, item.msg.DLC); item.roll == nil {
			return controller.Planned{}
		}
	}
	w, bit := seq>>6, uint64(1)<<(seq&63)
	first := item.seen[w]&bit == 0
	item.seen[w] |= bit
	return item.roll.Instance(seq, first)
}

// Controller exposes the replayer's protocol controller.
func (r *Replayer) Controller() *controller.Controller { return r.ctl }

// SharePlans wires a fleet-shared compiled-plan cache into the replayer's
// controller: every rolling table and plan the schedule compiles (lazily or
// via WarmSplice) resolves through the source, so N replayers stamped from
// the same matrix share one immutable copy of each payload rotation,
// serialization and pre-resolved splice span. Call before WarmSplice and
// before the replayer produces traffic; behavior is bit-identical with or
// without sharing.
func (r *Replayer) SharePlans(src *controller.PlanSource) { r.ctl.SetPlanSource(src) }

// SetTelemetry wires the replayer's controller to a telemetry hub.
func (r *Replayer) SetTelemetry(hub *telemetry.Hub) { r.ctl.SetTelemetry(hub) }

// Stats returns a copy of the delivery statistics, materializing the per-ID
// latency map from the per-item accumulators.
func (r *Replayer) Stats() ReplayStats {
	st := r.stats
	for i := range r.items {
		item := &r.items[i]
		if item.maxLat == 0 {
			continue
		}
		if st.MaxLatencyBits == nil {
			st.MaxLatencyBits = make(map[can.ID]int64, len(r.items))
		}
		st.MaxLatencyBits[item.msg.ID] = item.maxLat
	}
	return st
}

// Drive implements bus.Node.
func (r *Replayer) Drive(t bus.BitTime) can.Level { return r.ctl.Drive(t) }

// Observe implements bus.Node: due messages are enqueued, then the
// controller advances one bit. The item scan is skipped entirely until the
// cached earliest deadline arrives — behaviorally identical to scanning every
// bit, because no item can come due before nextScan.
func (r *Replayer) Observe(t bus.BitTime, level can.Level) {
	if t >= r.nextScan {
		r.scanDue(t)
	}
	r.ctl.Observe(t, level)
}

// scanDue processes every due item and recomputes the nextScan cache.
func (r *Replayer) scanDue(t bus.BitTime) {
	next := neverDue
	for i := range r.items {
		item := &r.items[i]
		if t >= item.nextDue {
			item.nextDue = t + bus.BitTime(item.periodBits)
			if item.outstanding {
				// The previous instance never got out: deadline missed; the
				// fresh instance replaces it logically (we keep the queued
				// frame — its payload is stale but its slot is reused).
				r.stats.DeadlineMisses++
				if r.stats.MissByID == nil {
					r.stats.MissByID = make(map[can.ID]int)
				}
				r.stats.MissByID[item.msg.ID]++
			} else {
				item.seq++
				if pl := r.plannedFor(item, item.seq); pl.Valid() {
					if err := r.ctl.EnqueuePlanned(pl); err == nil {
						r.stats.Enqueued++
						item.outstanding = true
						item.enqueuedAt = t
					}
				}
			}
		}
		if item.nextDue < next {
			next = item.nextDue
		}
	}
	r.nextScan = next
}

// QuiescentUntil implements bus.Quiescent: the replayer's only
// spontaneous activity is enqueueing the next due message, so its horizon is
// the cached earliest nextDue, clamped by the controller's own horizon. The
// due bit itself is exact-stepped, which is where Observe enqueues the
// instance — exactly as in per-bit mode.
func (r *Replayer) QuiescentUntil(now bus.BitTime) bus.BitTime {
	h := r.ctl.QuiescentUntil(now)
	if r.nextScan < h {
		h = r.nextScan
	}
	if h <= now {
		return now
	}
	return h
}

// SkipIdle implements bus.Quiescent: schedule state is absolute (nextDue bit
// times), so only the wrapped controller has per-bit state to advance.
func (r *Replayer) SkipIdle(from, to bus.BitTime) {
	r.ctl.SkipIdle(from, to)
}

// MissRate returns the fraction of scheduled instances that missed their
// deadline.
func (r *Replayer) MissRate() float64 {
	total := r.stats.Enqueued + r.stats.DeadlineMisses
	if total == 0 {
		return 0
	}
	return float64(r.stats.DeadlineMisses) / float64(total)
}

// PeriodOf returns the configured period for an ID, or zero when the matrix
// does not carry it.
func (r *Replayer) PeriodOf(id can.ID) time.Duration {
	for _, item := range r.items {
		if item.msg.ID == id {
			return item.msg.Period
		}
	}
	return 0
}
