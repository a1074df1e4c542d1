// Package forensics reconstructs attack incidents from the telemetry event
// stream. Where the experiment package computes the paper's tables from
// privileged access to the simulation (the wire recorder, controller stats
// structs), this package subscribes to the telemetry hub like any external
// consumer and folds the raw per-node events — tx attempts, arbitration
// outcomes, FSM detections, counterattack pulls, error episodes, TEC steps,
// bus-off and recovery — into per-campaign Incident records. Tables I and II
// regenerate from incidents alone and match the experiment-computed rows
// bit-for-bit (asserted in the experiment package's parity tests), making
// the event stream a third source of truth alongside the exact and
// fast-forward stepping paths.
//
// The engine is streaming: it subscribes to the hub's ordered stream, whose
// one sequencer restores canonical global order behind a bounded reorder
// horizon (batch fast-path delivery hands each node its whole span one node
// at a time), and folds each released batch under one lock. Incidents fold
// incrementally — a long-running simulation can expose closed and in-flight
// incidents over HTTP while the run is still advancing. Every transmission
// attempt, whether it succeeds, is destroyed or is dropped, is recycled into
// the next one, so a steady stream of frames or of destroyed attempts folds
// without allocating.
package forensics

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"michican/internal/can"
	"michican/internal/controller"
	"michican/internal/stats"
	"michican/internal/telemetry"
)

// Episode-grouping constants, mirroring the experiment package's trace-based
// rules so incident boundaries land on the same bits.
const (
	// EpisodeGapBits separates two incidents of the same ID: a destroyed
	// attempt more than half a recovery window after the previous one opens
	// a new incident.
	EpisodeGapBits = controller.RecoverySequences * controller.RecoveryIdleBits / 2
	// EpisodeEdgeMarginBits is the recording-edge margin: a trailing
	// incident with fewer than FullCampaignAttempts attempts ending within
	// one recovery window of the end of the run is still in progress.
	EpisodeEdgeMarginBits = controller.RecoverySequences * controller.RecoveryIdleBits
	// FullCampaignAttempts is the number of destroyed attempts a complete
	// eradication campaign takes (TEC steps of +8 from 0 to the bus-off
	// threshold 256).
	FullCampaignAttempts = 32
)

// TECStep is one transmit-error-counter transition of the incident's
// attacker.
type TECStep struct {
	At    int64 `json:"t"`
	Value int64 `json:"value"`
	Prev  int64 `json:"prev"`
}

// ChainLink is one hop of an incident's cross-node causality chain: the
// attacker's SOF leads to the defender's detection, the detection to the
// counterattack pull, the pull to the attacker's protocol error, the error
// to the TEC step, and the accumulated steps to bus-off and recovery.
type ChainLink struct {
	At   int64  `json:"t"`
	Node string `json:"node"`
	Step string `json:"step"`
}

// Incident is one reconstructed attack campaign: the consecutive destroyed
// transmission attempts of one CAN ID, from the first contested SOF to the
// last bit of the final error episode, plus the recovery that follows.
type Incident struct {
	// ID is the contested CAN ID.
	ID can.ID `json:"-"`
	// IDHex renders the ID for the JSON log.
	IDHex string `json:"id"`
	// Start is the SOF bit of the first destroyed attempt; End is the last
	// busy (dominant) bit of the final error episode — the same boundaries
	// the trace decoder assigns, so Bits() is directly comparable to the
	// experiment package's Episode.Bits.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Attempts counts destroyed wire attempts (a same-SOF duel is one).
	Attempts int `json:"attempts"`
	// Attacker is the node that went bus-off, or failing that the node with
	// the most destroyed attempts. Defender is the node whose detection
	// verdicts fired during the incident ("" if none did).
	Attacker string `json:"attacker,omitempty"`
	Defender string `json:"defender,omitempty"`
	// Detections counts FSM verdicts; FirstDetectAt is the bit time of the
	// first (-1 if none); DetectionBits summarizes the decision-bit
	// positions (1-11) within the CAN ID.
	Detections    int           `json:"detections"`
	FirstDetectAt int64         `json:"first_detect_at"`
	DetectionBits stats.Summary `json:"detection_bits"`
	// Counterattacks counts pull windows; PullBitsTotal sums the dominant
	// bits driven across them (positions 13-19 of each attempt).
	Counterattacks int   `json:"counterattacks"`
	PullBitsTotal  int64 `json:"pull_bits_total"`
	// FramesLeaked counts complete frames of this ID the attacker got
	// through during the incident window.
	FramesLeaked int `json:"frames_leaked"`
	// TEC is the attacker's transmit-error-counter trajectory across the
	// incident.
	TEC []TECStep `json:"tec,omitempty"`
	// BusOffAt is the bit time the attacker's TEC crossed the bus-off
	// threshold (-1 if the incident never eradicated); RecoveredAt is the
	// bit time the attacker completed the 128×11-bit recovery (-1 if not
	// observed).
	BusOffAt    int64 `json:"bus_off_at"`
	RecoveredAt int64 `json:"recovered_at"`
	Eradicated  bool  `json:"eradicated"`
	// Causality is the reconstructed cross-node chain for the first attempt
	// plus the bus-off and recovery hops.
	Causality []ChainLink `json:"causality,omitempty"`
}

// Bits returns the incident's span in bit times, inclusive on both ends.
func (i *Incident) Bits() int64 { return i.End - i.Start + 1 }

// IDSummary aggregates the incidents of one CAN ID.
type IDSummary struct {
	ID        can.ID `json:"-"`
	IDHex     string `json:"id"`
	Incidents int    `json:"incidents"`
	Attempts  int    `json:"attempts"`
	// EpisodeBits summarizes incident lengths (the Table II distribution);
	// DetectionBits summarizes FSM decision-bit positions across all
	// incidents of the ID.
	EpisodeBits   stats.Summary `json:"episode_bits"`
	DetectionBits stats.Summary `json:"detection_bits"`
}

// detectRec is one FSM verdict observed inside an attempt.
type detectRec struct {
	node telemetry.NodeID
	at   int64
	bit  int64
}

// pullRec is one counterattack window observed inside an attempt.
type pullRec struct {
	node       telemetry.NodeID
	startAt    int64
	endAt      int64
	bitsDriven int64
}

// errRec is one EvError observation inside an attempt. The flag the node put
// on the wire depends on its fault-confinement state AFTER the counter bump
// that accompanies the error (beginErrorSignal runs after tec/rec update), so
// the record resolves when the same-instant EvTEC/EvREC arrives — or at the
// close of the attempt for errors that bump nothing (the ISO 11898-1
// passive-transmitter ACK-error exception).
type errRec struct {
	node telemetry.NodeID
	at   int64
	kind int64
	// tx reports the node's role: true when its own transmission died.
	tx       bool
	resolved bool
	// active reports whether the node drove a 6-dominant active error flag
	// (visible on the wire) rather than a recessive passive one.
	active bool
}

// attempt is one wire-level transmission attempt under reconstruction: every
// node that asserted the same SOF bit joins it; arbitration losers drop out;
// the survivor either completes (EvTxSuccess) or is destroyed (EvError
// followed by the wire-wide EvErrorEnd).
//
// The engine keeps one attempt and recycles it: every retired attempt —
// succeeded, destroyed or dropped — is reset in place for the next SOF,
// keeping its slice storage. That is sound only because nothing that
// outlives an attempt aliases its storage: closeDestroyed,
// closeWireAttempt and attachBusOff copy every value they keep.
type attempt struct {
	start int64
	// tx holds one record per node that asserted the SOF (or erred in the
	// transmitter role) — one or two in practice, so a slice scan beats a
	// map (see txRec).
	tx []txRec
	// stray marks an attempt whose SOF the wire decoder skips: it began
	// within 3 bits of the previous frame's last EOF bit, so the decoder's
	// 11-recessive SOF rule is unmet and the bits read as stray noise. This
	// happens when a bus-off node counts an unacknowledged frame's recessive
	// tail as its post-recovery idle window and fires immediately.
	stray bool
	errs  []errRec
	// destroyed flips on the first EvError inside the attempt.
	destroyed bool
	detects   []detectRec
	pulls     []pullRec
	// tec holds each surviving transmitter's TEC steps, one entry per node
	// in first-step order. Every consumer folds them per node, so the order
	// carries no meaning.
	tec        []nodeTEC
	busOff     bool
	busOffNode telemetry.NodeID
	busOffAt   int64
}

// txRec is one transmitter of an attempt. A surviving transmitter (not
// lost) carries the CAN ID it is sending (EvTxStart's argument): the wire's
// arbitration field carries the survivors' common ID — recovered this way
// rather than from EvArbWon because a counterattack on an arbitration-region
// stuff bit (a low ID with a long dominant run, e.g. 0x050) destroys the
// attempt before the controller's arbEnd while the wire still shows all 11
// ID bits. dead marks a node that aborted its own transmission (an EvError
// in the transmitter role). A survivor that is not dead is still driving
// the frame: as long as one remains live the wire episode has not resolved,
// so the attempt must stay open past other nodes' error delimiters.
type txRec struct {
	node telemetry.NodeID
	id   int64
	lost bool // lost arbitration: no longer a survivor
	dead bool
}

// txOf returns the node's record, or nil.
func (c *attempt) txOf(node telemetry.NodeID) *txRec {
	for i := range c.tx {
		if c.tx[i].node == node {
			return &c.tx[i]
		}
	}
	return nil
}

// survives reports whether the node is a surviving transmitter.
func (c *attempt) survives(node telemetry.NodeID) bool {
	r := c.txOf(node)
	return r != nil && !r.lost
}

// nodeTEC is one node's TEC steps within an attempt.
type nodeTEC struct {
	node  telemetry.NodeID
	steps []TECStep
}

// addTEC appends a TEC step to the node's list, reusing a retired entry's
// storage when a new node appears.
func (c *attempt) addTEC(node telemetry.NodeID, step TECStep) {
	for i := range c.tec {
		if c.tec[i].node == node {
			c.tec[i].steps = append(c.tec[i].steps, step)
			return
		}
	}
	n := len(c.tec)
	if n == cap(c.tec) {
		c.tec = append(c.tec, nodeTEC{})
	} else {
		c.tec = c.tec[:n+1]
	}
	t := &c.tec[n]
	t.node = node
	t.steps = append(t.steps[:0], step)
}

// tecOf returns the node's TEC steps within the attempt.
func (c *attempt) tecOf(node telemetry.NodeID) []TECStep {
	for i := range c.tec {
		if c.tec[i].node == node {
			return c.tec[i].steps
		}
	}
	return nil
}

// reset empties the attempt for reuse, keeping its slice storage.
func (c *attempt) reset() {
	c.tx = c.tx[:0]
	c.stray, c.destroyed, c.busOff = false, false, false
	c.busOffNode, c.busOffAt = 0, 0
	c.errs = c.errs[:0]
	c.detects = c.detects[:0]
	c.pulls = c.pulls[:0]
	c.tec = c.tec[:0]
}

// incidentState is an Incident under construction plus the working state
// needed to resolve attribution at snapshot time. Its TEC trajectories and
// causality chain are slab lists (see slab), so a snapshot shares them.
type incidentState struct {
	inc Incident
	// nodes lists the incident's transmitters in first-seen order; nodeBuf
	// holds the first two (a campaign has one or two), so the list costs
	// no allocation.
	nodes       []incNode
	nodeBuf     [2]incNode
	busOffNode  telemetry.NodeID
	hasDefender bool
	detAcc      stats.Accumulator
	// leakFrozen marks a closed incident whose inc.FramesLeaked was counted
	// at closure; the success records it covered are pruned.
	leakFrozen bool
}

// incNode is one transmitter's share of an incident: the destroyed attempts
// it drove and its TEC trajectory across the incident.
type incNode struct {
	node      telemetry.NodeID
	destroyed int
	tec       []TECStep
}

// nodeOf returns the node's entry, adding it on first sight.
func (st *incidentState) nodeOf(node telemetry.NodeID) *incNode {
	for i := range st.nodes {
		if st.nodes[i].node == node {
			return &st.nodes[i]
		}
	}
	if st.nodes == nil {
		st.nodes = st.nodeBuf[:0]
	}
	st.nodes = append(st.nodes, incNode{node: node})
	return &st.nodes[len(st.nodes)-1]
}

// tecOf returns the node's TEC trajectory across the incident.
func (st *incidentState) tecOf(node telemetry.NodeID) []TECStep {
	for _, n := range st.nodes {
		if n.node == node {
			return n.tec
		}
	}
	return nil
}

// slab carves the engine's growable lists (TEC trajectories, causality
// chains) out of shared chunks, so the many short lists an engine keeps per
// incident cost one allocation per chunk rather than a few growths each.
// A list's capacity is its reservation in a chunk. A full list whose
// reservation ends at the chunk's fill point widens in place; any other
// moves to a reservation twice its size, leaving its old storage unchanged
// to whoever still holds it. The engine only ever writes past a list's
// length, so a snapshot clipped to cap == len never changes, and an append
// by its holder copies instead of writing into the engine's reservation.
type slab[T any] struct{ chunk []T }

// A list's first reservation holds slabList elements; chunks grow from
// slabFirst elements by doubling up to slabMax.
const (
	slabList  = 4
	slabFirst = 16
	slabMax   = 512
)

// extend returns list with more appended.
func (s *slab[T]) extend(list []T, more ...T) []T {
	if n, c := len(list)+len(more), cap(list); n > c {
		room := max(2*c, n, slabList)
		start := len(s.chunk) - c
		if c == 0 || &list[:c][c-1] != &s.chunk[len(s.chunk)-1] || start+room > cap(s.chunk) {
			if len(s.chunk)+room > cap(s.chunk) {
				s.chunk = make([]T, 0, max(min(max(2*cap(s.chunk), slabFirst), slabMax), room))
			}
			start = len(s.chunk)
			s.chunk = append(s.chunk, list...)
		}
		s.chunk = s.chunk[:start+room]
		list = s.chunk[start : start+len(list) : start+room]
	}
	return append(list, more...)
}

// successRec is one completed frame, kept per ID so FramesLeaked can be
// counted against the attributed attacker when an incident resolves. A record
// is kept only while an incident of its ID can still cover it: an incident of
// that ID is open, or an attempt is in flight (and may yet open one).
type successRec struct {
	node telemetry.NodeID
	at   int64
}

// Engine folds the telemetry event stream into incidents. Create with
// NewEngine; all methods are safe for concurrent use with ongoing emission.
type Engine struct {
	mu     sync.Mutex
	hub    *telemetry.Hub
	cancel func()
	names  map[telemetry.NodeID]string

	cur       *attempt
	spare     *attempt // the last retired attempt, reset for the next SOF
	open      map[int64]*incidentState
	closed    []*incidentState
	recovery  map[telemetry.NodeID]*incidentState
	successes map[int64][]successRec
	// unowned lists the IDs whose success records the in-flight attempt
	// alone keeps (no incident of the ID was open when the first one was
	// recorded); endAttempt prunes exactly these.
	unowned     []int64
	txSuccess   map[telemetry.NodeID]int
	firstBusOff map[telemetry.NodeID]int64
	idDet       map[int64]*stats.Accumulator

	// tecs and links back every incident's TEC trajectories and causality
	// chain; hops is the scratch the first attempt's chain is built in.
	tecs  slab[TECStep]
	links slab[ChainLink]
	hops  []ChainLink

	// tec/rec mirror each node's error counters from EvTEC/EvREC so the
	// engine can derive fault-confinement state (which decides whether an
	// error flag was active and wire-visible, or passive and silent).
	tec map[telemetry.NodeID]int64
	rec map[telemetry.NodeID]int64
	// wireFrameEnd is the last bit of the most recent episode the wire
	// decoder reads as a complete frame: an acknowledged transmission's
	// final EOF bit, or the projected EOF end of an unacknowledged frame
	// whose transmitter signalled only a passive (recessive, invisible)
	// error flag.
	wireFrameEnd int64

	firstDetect int64
	eventsSeen  int64
	dropped     int
	stray       int
	finalized   bool
	endAt       int64

	// onIncident, when set, is called once per incident at the moment it
	// closes: mid-run when a same-ID gap supersedes it, and at Finalize for
	// incidents still open at the recording edge. See SetOnIncident.
	onIncident IncidentFunc
}

// IncidentFunc observes incident closures. atEnd is true for incidents that
// were still open when Finalize flushed the stream; recordingEnd is the
// recording's final bit time for those (and -1 for mid-run closures), so a
// consumer can apply the same recording-edge rule as Complete.
type IncidentFunc func(inc Incident, atEnd bool, recordingEnd int64)

// NewEngine creates an engine subscribed to the hub's ordered stream: every
// event emitted from now on reaches the incident fold in canonical order,
// one released batch at a time, with no retained-log copies. Call Finalize
// (and optionally Close) when the run completes.
func NewEngine(h *telemetry.Hub) *Engine {
	e := &Engine{
		hub:          h,
		names:        make(map[telemetry.NodeID]string),
		open:         make(map[int64]*incidentState),
		recovery:     make(map[telemetry.NodeID]*incidentState),
		successes:    make(map[int64][]successRec),
		txSuccess:    make(map[telemetry.NodeID]int),
		firstBusOff:  make(map[telemetry.NodeID]int64),
		idDet:        make(map[int64]*stats.Accumulator),
		tec:          make(map[telemetry.NodeID]int64),
		rec:          make(map[telemetry.NodeID]int64),
		wireFrameEnd: -1 << 40,
		firstDetect:  -1,
		endAt:        -1,
	}
	e.cancel = h.SubscribeOrdered(e.feed)
	return e
}

// SetOnIncident registers a closure observer, called in canonical stream
// order with a resolved snapshot of each incident as it closes. The callback
// runs with the engine lock held, inside the hub's batch delivery — it must
// not call back into the engine — but it may emit EvAlert (alerts bypass
// the hub's sequencer, so a watch rule can publish alerts from inside the
// callback). Call before the run starts; closures that happened earlier
// are not replayed.
func (e *Engine) SetOnIncident(fn IncidentFunc) {
	e.mu.Lock()
	e.onIncident = fn
	e.mu.Unlock()
}

// feed folds one canonical-order batch from the hub. Alerts never reach it:
// they describe the watch engine observing this very stream, not the
// simulated network, and bypass the hub's sequencer.
func (e *Engine) feed(batch []telemetry.Event) {
	e.mu.Lock()
	e.eventsSeen += int64(len(batch))
	for _, ev := range batch {
		e.fold(ev)
	}
	e.mu.Unlock()
}

// Close cancels the hub subscription (idempotent).
func (e *Engine) Close() {
	if e.cancel != nil {
		e.cancel()
		e.cancel = nil
	}
}

// Finalize flushes the hub's reorder window into the fold and records the
// end of the recording. In-flight state (an unresolved attempt, open
// incidents) is preserved and visible via InFlight; Complete applies the
// recording-edge rule against the recorded end.
func (e *Engine) Finalize(recordingEnd int64) {
	e.hub.Flush()
	e.mu.Lock()
	defer e.mu.Unlock()
	alreadyFinal := e.finalized
	e.finalized = true
	e.endAt = recordingEnd
	if e.onIncident != nil && !alreadyFinal {
		// Closure callbacks for incidents still open at the recording edge,
		// in the same canonical (Start, ID) order Incidents reports them.
		states := make([]*incidentState, 0, len(e.open))
		for _, st := range e.open {
			states = append(states, st)
		}
		sort.Slice(states, func(i, j int) bool {
			if states[i].inc.Start != states[j].inc.Start {
				return states[i].inc.Start < states[j].inc.Start
			}
			return states[i].inc.ID < states[j].inc.ID
		})
		for _, st := range states {
			e.onIncident(e.resolve(st), true, recordingEnd)
		}
	}
}

// nodeName resolves a node ID, caching hub lookups. Called with e.mu held;
// the hub lock is independent, so this cannot deadlock with emitters.
func (e *Engine) nodeName(id telemetry.NodeID) string {
	if name, ok := e.names[id]; ok && name != "" {
		return name
	}
	name := e.hub.NodeName(id)
	if name == "" {
		name = fmt.Sprintf("node%d", id)
	}
	e.names[id] = name
	return name
}

// nodeActive reports whether the node is currently error-active per the
// fault-confinement rules applied to the tracked counters.
func (e *Engine) nodeActive(n telemetry.NodeID) bool {
	return e.tec[n] < controller.BusOffThreshold &&
		e.tec[n] <= controller.PassiveThreshold &&
		e.rec[n] <= controller.PassiveThreshold
}

// resolveErrs finalizes the still-pending error records of the node at the
// given instant (or every pending record when node < 0, at attempt close)
// against the current counter state, and applies the unacknowledged-frame
// rule: an ACK-erroring transmitter that signals passively leaves a complete
// frame on the wire, whose EOF tail (ACK delimiter + 7 EOF bits) ends 8 bits
// after the ACK slot.
func (e *Engine) resolveErrs(c *attempt, node telemetry.NodeID, at int64) {
	for i := range c.errs {
		er := &c.errs[i]
		if er.resolved || (node >= 0 && (er.node != node || er.at != at)) {
			continue
		}
		er.resolved = true
		er.active = e.nodeActive(er.node)
		if er.tx && er.kind == int64(controller.AckError) && !er.active {
			if end := er.at + errTailBits; end > e.wireFrameEnd {
				e.wireFrameEnd = end
			}
		}
	}
}

// errTailBits is the wire distance from an ACK-slot error to the frame's
// final EOF bit: the ACK delimiter plus the 7 EOF bits. When nobody destroys
// the frame (all error flags passive), the wire decoder reads it as complete
// and its episode ends there.
const errTailBits = 1 + 7

// wireIDLen returns the number of wire bits from SOF through the last of the
// 11 ID bits, including the stuff bits CAN inserts inside that region — the
// prefix the trace decoder must read uncorrupted to attribute a destroyed
// attempt (its IDComplete flag).
func wireIDLen(id int64) int64 {
	n := int64(1) // SOF, dominant
	prev, run := 0, 1
	for i := 10; i >= 0; i-- {
		b := int((id >> uint(i)) & 1)
		if b == prev {
			run++
		} else {
			prev, run = b, 1
		}
		n++
		if run == 5 && i > 0 {
			// A stuff bit of the opposite level follows immediately; it only
			// counts while ID bits remain (a stuff bit after the 11th ID bit
			// lies outside the region the decoder needs).
			prev, run = 1-prev, 1
			n++
		}
	}
	return n
}

// closeWireAttempt applies the wire decoder's visibility rules to a finished
// destroyed attempt and folds it into its incident when the decoder would
// count it. errorEnd is the delimiter-completion instant reported by the
// first witness.
func (e *Engine) closeWireAttempt(c *attempt, errorEnd int64) {
	e.resolveErrs(c, -1, 0)
	if c.stray {
		// The wire decoder never saw this attempt's SOF (no preceding idle
		// window); its bits read as stray noise, not an episode.
		e.stray++
		return
	}
	anyActive := false
	ackReached := false
	for _, er := range c.errs {
		if er.active {
			anyActive = true
		}
		if er.tx && er.kind == int64(controller.AckError) {
			ackReached = true
		}
	}
	// The wire's arbitration field carries the surviving transmitters'
	// common intended ID, readable by the decoder only if no corrupting
	// dominant (a counterattack pull or an active error flag, which starts
	// the bit after its trigger) lands inside the stuffed SOF+ID region.
	var id int64
	idKnown := false
	for _, r := range c.tx {
		if r.lost {
			continue
		}
		if !idKnown {
			id, idKnown = r.id, true
		} else if r.id != id {
			idKnown = false
			break
		}
	}
	if !anyActive && ackReached {
		// No active flag destroyed the frame and some transmitter reached
		// the ACK slot, so every bit from SOF through CRC made it onto the
		// wire: the decoder reads a complete (if unacknowledged) frame, not
		// a destroyed attempt. Transmitters that died along the way with
		// only passive flags may still have hit bus-off here — attach that
		// outcome to the ID's open incident even though the attempt itself
		// never counts.
		if c.busOff && idKnown {
			if st := e.open[id]; st != nil {
				e.foldTEC(st, c)
				e.attachBusOff(st, c)
			}
		}
		return
	}
	// The episode's last busy bit: active flags keep the wire dominant until
	// 8 bits (the delimiter) before the shared completion instant; when every
	// flag is passive the wire goes quiet 6 bits earlier — the recessive
	// passive flag precedes the delimiter invisibly. Either way a
	// counterattack pull can outlast the flags: its final dominant bit
	// extends the episode when the erring node signalled nothing at all
	// (it crossed straight into bus-off) or only invisibly.
	end := errorEnd - controller.ErrorDelimiterBits
	if !anyActive {
		end -= controller.PassiveFlagBits
	}
	for _, p := range c.pulls {
		if p.endAt > end {
			end = p.endAt
		}
	}
	if idKnown {
		idRegionEnd := c.start + wireIDLen(id) - 1
		for _, p := range c.pulls {
			if p.startAt <= idRegionEnd {
				idKnown = false
			}
		}
		for _, er := range c.errs {
			if er.active && er.at+1 <= idRegionEnd {
				idKnown = false
			}
		}
	}
	if !idKnown {
		// The decoder cannot attribute the attempt either (IDComplete false
		// or a corrupted ID value).
		e.dropped++
		return
	}
	e.closeDestroyed(c, id, end)
}

// fold advances the reconstruction by one event, in canonical global order.
// Called with e.mu held, from feed.
func (e *Engine) fold(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.EvTxStart:
		if c := e.cur; c != nil && c.start != ev.Time {
			// The previous attempt never resolved on the wire before a new
			// SOF: an unacknowledged frame whose passive error signalling is
			// still draining, or a transmitter outside the hub's wiring.
			// Resolve its pending errors (the unACKed-frame rule may move
			// wireFrameEnd) and drop it.
			e.resolveErrs(c, -1, 0)
			e.dropped++
			e.endAttempt()
		}
		if e.cur == nil {
			// The retired attempt comes back reset; only the first SOF
			// allocates.
			c := e.spare
			e.spare = nil
			if c == nil {
				c = &attempt{tx: make([]txRec, 0, 2)}
			}
			c.start = ev.Time
			// The trace decoder credits a decoded frame's recessive tail
			// (ACK delimiter + EOF) as 8 idle bits and demands 11 before a
			// SOF: a SOF within 3 bits of a frame's end is skipped as stray
			// noise and never becomes an episode.
			c.stray = ev.Time <= e.wireFrameEnd+3
			e.cur = c
		}
		if r := e.cur.txOf(ev.Node); r != nil {
			r.id, r.lost = ev.A, false
		} else {
			e.cur.tx = append(e.cur.tx, txRec{node: ev.Node, id: ev.A})
		}

	case telemetry.EvArbLost:
		if c := e.cur; c != nil {
			if r := c.txOf(ev.Node); r != nil {
				r.lost = true
			}
		}

	case telemetry.EvDetect:
		if e.firstDetect < 0 {
			e.firstDetect = ev.Time
		}
		if c := e.cur; c != nil {
			c.detects = append(c.detects, detectRec{node: ev.Node, at: ev.Time, bit: ev.A})
		}

	case telemetry.EvPullStart:
		if c := e.cur; c != nil {
			c.pulls = append(c.pulls, pullRec{node: ev.Node, startAt: ev.Time, endAt: -1})
		}

	case telemetry.EvPullEnd:
		if c := e.cur; c != nil {
			for i := len(c.pulls) - 1; i >= 0; i-- {
				if c.pulls[i].endAt < 0 {
					c.pulls[i].endAt = ev.Time
					c.pulls[i].bitsDriven = ev.A
					break
				}
			}
		}

	case telemetry.EvError:
		if c := e.cur; c != nil {
			c.destroyed = true
			rec := errRec{node: ev.Node, at: ev.Time, kind: ev.A, tx: ev.B == 1}
			if rec.tx {
				if r := c.txOf(ev.Node); r != nil {
					r.dead = true
				} else {
					c.tx = append(c.tx, txRec{node: ev.Node, lost: true, dead: true})
				}
			}
			// The ISO passive-ACK exception bumps no counter, so no
			// same-instant EvTEC will arrive to resolve this record;
			// the node's state is already final.
			if rec.tx && rec.kind == int64(controller.AckError) && !e.nodeActive(ev.Node) {
				rec.resolved = true
				if end := ev.Time + errTailBits; end > e.wireFrameEnd {
					e.wireFrameEnd = end
				}
			}
			c.errs = append(c.errs, rec)
		}

	case telemetry.EvErrorEnd:
		// All in-sync nodes complete the shared error delimiter on the same
		// wire bit; the first such event closes the attempt and the rest
		// find no attempt open. The bus-off node never reports its own
		// final delimiter, so relying on any witness is what makes the
		// episode end wire-accurate. A delimiter completing while another
		// transmitter is still live does NOT close the attempt: an
		// error-passive node's invisible flag leaves the surviving
		// transmitter driving the frame (a late-campaign same-ID duel),
		// and the wire resolves only at that survivor's own completion.
		if c := e.cur; c != nil && c.destroyed {
			live := false
			for _, r := range c.tx {
				if !r.lost && !r.dead {
					live = true
					break
				}
			}
			if !live {
				e.closeWireAttempt(c, ev.Time)
				e.endAttempt()
			}
		}

	case telemetry.EvTxSuccess:
		e.txSuccess[ev.Node]++
		if ev.Time > e.wireFrameEnd {
			e.wireFrameEnd = ev.Time
		}
		if c := e.cur; c != nil && c.survives(ev.Node) {
			e.endAttempt()
		}
		if e.open[ev.A] != nil || e.cur != nil {
			recs, ok := e.successes[ev.A]
			if !ok && e.open[ev.A] == nil {
				e.unowned = append(e.unowned, ev.A)
			}
			e.successes[ev.A] = append(recs, successRec{node: ev.Node, at: ev.Time})
		}

	case telemetry.EvTEC:
		e.tec[ev.Node] = ev.A
		if c := e.cur; c != nil {
			e.resolveErrs(c, ev.Node, ev.Time)
			if c.survives(ev.Node) {
				c.addTEC(ev.Node, TECStep{At: ev.Time, Value: ev.A, Prev: ev.B})
			}
		}

	case telemetry.EvREC:
		e.rec[ev.Node] = ev.A
		if c := e.cur; c != nil {
			e.resolveErrs(c, ev.Node, ev.Time)
		}

	case telemetry.EvBusOff:
		if _, ok := e.firstBusOff[ev.Node]; !ok {
			e.firstBusOff[ev.Node] = ev.Time
		}
		if c := e.cur; c != nil && c.survives(ev.Node) {
			c.busOff = true
			c.busOffNode = ev.Node
			c.busOffAt = ev.Time
		}

	case telemetry.EvRecover:
		if st := e.recovery[ev.Node]; st != nil {
			st.inc.RecoveredAt = ev.Time
			st.inc.Causality = e.links.extend(st.inc.Causality,
				ChainLink{At: ev.Time, Node: e.nodeName(ev.Node), Step: "recover"})
			delete(e.recovery, ev.Node)
		}
	}
}

// endAttempt retires the in-flight attempt into the spare slot, reset, and
// drops the success records it alone kept: those of IDs with no open
// incident. Only the attempt can have recorded such IDs (with no attempt in
// flight a success is kept only for an open incident, and incidents never
// leave the open table, only get superseded in it), and it listed them in
// e.unowned. Called with e.mu held.
func (e *Engine) endAttempt() {
	e.cur.reset()
	e.spare, e.cur = e.cur, nil
	for _, id := range e.unowned {
		if e.open[id] == nil {
			delete(e.successes, id)
		}
	}
	e.unowned = e.unowned[:0]
}

// closeDestroyed folds a wire-visible destroyed attempt into its ID's
// incident. Called with e.mu held.
func (e *Engine) closeDestroyed(c *attempt, id int64, end int64) {
	st := e.open[id]
	if st != nil && c.start-st.inc.End > EpisodeGapBits {
		// The superseded incident's window is final: count its leaked frames
		// now and drop the records no later incident of this ID can cover.
		inc := e.resolve(st)
		st.inc.FramesLeaked, st.leakFrozen = inc.FramesLeaked, true
		recs := e.successes[id]
		i := sort.Search(len(recs), func(i int) bool { return recs[i].at >= c.start })
		e.successes[id] = recs[:copy(recs, recs[i:])]
		e.closed = append(e.closed, st)
		if e.onIncident != nil {
			e.onIncident(inc, false, -1)
		}
		st = nil
	}
	first := false
	if st == nil {
		first = true
		st = &incidentState{inc: Incident{
			ID:            can.ID(id),
			IDHex:         idHex(id),
			Start:         c.start,
			FirstDetectAt: -1,
			BusOffAt:      -1,
			RecoveredAt:   -1,
		}}
		e.open[id] = st
	}
	inc := &st.inc
	inc.Attempts++
	inc.End = end

	for _, r := range c.tx {
		if !r.lost {
			st.nodeOf(r.node).destroyed++
		}
	}
	e.foldTEC(st, c)
	det := e.idDet[id]
	if det == nil {
		det = &stats.Accumulator{}
		e.idDet[id] = det
	}
	for _, d := range c.detects {
		inc.Detections++
		st.detAcc.Add(float64(d.bit))
		det.Add(float64(d.bit))
		if inc.FirstDetectAt < 0 {
			inc.FirstDetectAt = d.at
		}
		if !st.hasDefender {
			st.hasDefender = true
			inc.Defender = e.nodeName(d.node)
		}
	}
	for _, p := range c.pulls {
		inc.Counterattacks++
		inc.PullBitsTotal += p.bitsDriven
	}
	if first {
		e.hops = c.chain(e, e.hops[:0])
		st.inc.Causality = e.links.extend(nil, e.hops...)
	}
	if c.busOff {
		e.attachBusOff(st, c)
	}
}

// foldTEC extends the incident's per-node TEC trajectories by the attempt's
// steps. Called with e.mu held.
func (e *Engine) foldTEC(st *incidentState, c *attempt) {
	for _, t := range c.tec {
		n := st.nodeOf(t.node)
		n.tec = e.tecs.extend(n.tec, t.steps...)
	}
}

// attachBusOff records the attempt's bus-off outcome on the incident: the
// eradication instant, the final TEC hop and bus-off causality links, and the
// recovery watch. Called with e.mu held.
func (e *Engine) attachBusOff(st *incidentState, c *attempt) {
	inc := &st.inc
	inc.BusOffAt = c.busOffAt
	inc.Eradicated = true
	st.busOffNode = c.busOffNode
	name := e.nodeName(c.busOffNode)
	var hops [2]ChainLink
	n := 0
	if steps := c.tecOf(c.busOffNode); len(steps) > 0 {
		last := steps[len(steps)-1]
		var buf [48]byte
		step := strconv.AppendInt(append(buf[:0], "tec "...), last.Prev, 10)
		step = strconv.AppendInt(append(step, "→"...), last.Value, 10)
		hops[n] = ChainLink{At: last.At, Node: name, Step: string(step)}
		n++
	}
	hops[n] = ChainLink{At: c.busOffAt, Node: name, Step: "bus_off"}
	inc.Causality = e.links.extend(inc.Causality, hops[:n+1]...)
	e.recovery[c.busOffNode] = st
}

// chain appends the first attempt's causal hops to links.
func (c *attempt) chain(e *Engine, links []ChainLink) []ChainLink {
	// The SOF: name the surviving transmitters (losers already dropped out)
	// in name order.
	for _, r := range c.tx {
		if r.lost {
			continue
		}
		l := ChainLink{At: c.start, Node: e.nodeName(r.node), Step: "tx_start"}
		links = append(links, l)
		i := len(links) - 1
		for ; i > 0 && links[i-1].Node > l.Node; i-- {
			links[i] = links[i-1]
		}
		links[i] = l
	}
	for _, d := range c.detects {
		links = append(links, ChainLink{At: d.at, Node: e.nodeName(d.node),
			Step: numberedStep(detectSteps[:], "detect@bit", "", d.bit)})
	}
	for _, p := range c.pulls {
		links = append(links, ChainLink{At: p.startAt, Node: e.nodeName(p.node),
			Step: numberedStep(pullSteps[:], "counterattack(", " bits)", p.bitsDriven)})
	}
	if len(c.errs) > 0 {
		first := c.errs[0]
		links = append(links, ChainLink{At: first.at, Node: "", Step: errorStep(first.kind)})
	}
	return links
}

// The causality steps that carry a number, as constants for the numbers a
// base-format campaign produces: decision bits 1–11 of the ID and pulls of
// at most the 7 bits 13–19. numberedStep formats any other number.
var (
	detectSteps = [...]string{"detect@bit0", "detect@bit1", "detect@bit2", "detect@bit3",
		"detect@bit4", "detect@bit5", "detect@bit6", "detect@bit7", "detect@bit8",
		"detect@bit9", "detect@bit10", "detect@bit11"}
	pullSteps = [...]string{"counterattack(0 bits)", "counterattack(1 bits)",
		"counterattack(2 bits)", "counterattack(3 bits)", "counterattack(4 bits)",
		"counterattack(5 bits)", "counterattack(6 bits)", "counterattack(7 bits)"}
)

// numberedStep returns prefix n suffix, from the table when n is in it.
func numberedStep(table []string, prefix, suffix string, n int64) string {
	if n >= 0 && n < int64(len(table)) {
		return table[n]
	}
	return prefix + strconv.FormatInt(n, 10) + suffix
}

// errorStep names an error hop by the kind of the attempt's first error.
func errorStep(kind int64) string {
	switch controller.ErrorKind(kind) {
	case controller.BitError:
		return "error(bit)"
	case controller.StuffError:
		return "error(stuff)"
	case controller.FormError:
		return "error(form)"
	case controller.CRCError:
		return "error(crc)"
	case controller.AckError:
		return "error(ack)"
	}
	return "error(" + telemetry.ErrorKindName(kind) + ")"
}

// idHex renders a non-negative ID as IDHex, fmt's "0x%03X": 0x and at
// least three upper-case hex digits.
func idHex(id int64) string {
	digits := 3
	for v := id >> 12; v > 0; v >>= 4 {
		digits++
	}
	var buf [2 + 16]byte
	b := append(buf[:0], '0', 'x')
	for i := digits - 1; i >= 0; i-- {
		b = append(b, "0123456789ABCDEF"[id>>(4*i)&0xF])
	}
	return string(b)
}

// resolve renders a snapshot of an incident with attribution applied.
// Called with e.mu held.
func (e *Engine) resolve(st *incidentState) Incident {
	inc := st.inc
	attacker, found := st.busOffNode, inc.Eradicated
	if !found {
		// Deterministic attribution: most destroyed attempts, ties broken
		// by the lower node ID (registration order, which is fixed per
		// scenario wiring).
		best := 0
		for _, n := range st.nodes {
			if n.destroyed > best || (found && n.destroyed == best && n.node < attacker) {
				best, attacker, found = n.destroyed, n.node, true
			}
		}
	}
	if found {
		inc.Attacker = e.nodeName(attacker)
		inc.TEC = slices.Clip(st.tecOf(attacker))
		if !st.leakFrozen {
			for _, s := range e.successes[int64(inc.ID)] {
				if s.node == attacker && s.at >= inc.Start && s.at <= inc.End {
					inc.FramesLeaked++
				}
			}
		}
	}
	inc.DetectionBits = st.detAcc.Summarize()
	inc.Causality = slices.Clip(inc.Causality)
	return inc
}

// incidentsLocked resolves closed (and optionally open) incidents sorted by
// (Start, ID). Called with e.mu held.
func (e *Engine) incidentsLocked(includeClosed bool) []Incident {
	var out []Incident
	if includeClosed {
		for _, st := range e.closed {
			out = append(out, e.resolve(st))
		}
	}
	for _, st := range e.open {
		out = append(out, e.resolve(st))
	}
	sortIncidents(out)
	return out
}

// Incidents returns every incident observed so far — closed and still open —
// resolved and sorted by (Start, ID).
func (e *Engine) Incidents() []Incident {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.incidentsLocked(true)
}

// InFlight returns the incidents that have not yet been closed by a
// same-ID gap (a mid-frame attempt has no incident until its first
// destroyed attempt resolves).
func (e *Engine) InFlight() []Incident {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.incidentsLocked(false)
}

func sortIncidents(incs []Incident) {
	sort.Slice(incs, func(i, j int) bool {
		if incs[i].Start != incs[j].Start {
			return incs[i].Start < incs[j].Start
		}
		return incs[i].ID < incs[j].ID
	})
}

// IncidentsOf returns the resolved incidents of one ID in time order.
func (e *Engine) IncidentsOf(id can.ID) []Incident {
	var out []Incident
	for _, inc := range e.Incidents() {
		if inc.ID == id {
			out = append(out, inc)
		}
	}
	return out
}

// Complete filters incidents with the recording-edge rule the experiment
// package applies to trace episodes: a trailing incident that has fewer
// than a full campaign's attempts and ends within one recovery window of
// the recording's end is still in progress and is dropped.
func Complete(incs []Incident, recordingEnd int64) []Incident {
	if len(incs) == 0 {
		return nil
	}
	last := incs[len(incs)-1]
	if last.Attempts < FullCampaignAttempts && recordingEnd-last.End < EpisodeEdgeMarginBits {
		return incs[:len(incs)-1]
	}
	return incs
}

// Summaries aggregates per-ID accumulator summaries over all incidents,
// sorted by ID.
func (e *Engine) Summaries() []IDSummary {
	e.mu.Lock()
	defer e.mu.Unlock()
	byID := make(map[can.ID]*IDSummary)
	accs := make(map[can.ID]*stats.Accumulator)
	for _, inc := range e.incidentsLocked(true) {
		s := byID[inc.ID]
		if s == nil {
			s = &IDSummary{ID: inc.ID, IDHex: inc.IDHex}
			byID[inc.ID] = s
			accs[inc.ID] = &stats.Accumulator{}
		}
		s.Incidents++
		s.Attempts += inc.Attempts
		accs[inc.ID].Add(float64(inc.Bits()))
	}
	out := make([]IDSummary, 0, len(byID))
	for id, s := range byID {
		s.EpisodeBits = accs[id].Summarize()
		if det := e.idDet[int64(id)]; det != nil {
			s.DetectionBits = det.Summarize()
		}
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FirstDetectionAt returns the bit time of the first FSM verdict seen
// anywhere in the stream (-1 if none) — the Table I detection instant.
func (e *Engine) FirstDetectionAt() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.firstDetect
}

// TxSuccessCount returns how many frames the named node completed.
func (e *Engine) TxSuccessCount(node string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	for id, n := range e.txSuccess {
		if e.nodeName(id) == node {
			return n
		}
	}
	return 0
}

// FirstBusOffAt returns the bit time of the named node's first bus-off
// (-1 if it never left the bus).
func (e *Engine) FirstBusOffAt(node string) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	for id, t := range e.firstBusOff {
		if e.nodeName(id) == node {
			return t
		}
	}
	return -1
}

// Stats reports engine-level counters for diagnostics.
type EngineStats struct {
	// EventsSeen counts the events folded so far: those the hub's
	// sequencer has released.
	EventsSeen      int64 `json:"events_seen"`
	DroppedAttempts int   `json:"dropped_attempts"`
	StrayAttempts   int   `json:"stray_attempts"`
	Finalized       bool  `json:"finalized"`
	RecordingEnd    int64 `json:"recording_end"`
}

// Stats snapshots the engine-level counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EngineStats{
		EventsSeen:      e.eventsSeen,
		DroppedAttempts: e.dropped,
		StrayAttempts:   e.stray,
		Finalized:       e.finalized,
		RecordingEnd:    e.endAt,
	}
}
