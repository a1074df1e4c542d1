// Package telemetry is the simulation's observability substrate: a typed
// event bus keyed by simulated bit time, a metrics registry (atomic counters
// and gauges plus Accumulator-backed histograms), and exporters that turn a
// captured run into a JSONL event stream, a Chrome trace_event JSON viewable
// in Perfetto, or a Prometheus-style text snapshot.
//
// The paper's evaluation (Sec. V) leans on external instruments — a logic
// analyzer for bus-off timing, a cycle counter for defense overhead — that
// the simulation previously improvised per experiment. This package bakes
// the measurement surface into the datapath instead: the bus, the protocol
// controllers, and the MichiCAN defense all emit typed events (arbitration
// won/lost, FSM detection verdicts with the decision bit, counterattack pull
// start/end, error-frame episodes, TEC/REC transitions, bus-off entry, and
// fast-path span commits) through a Probe handle whose zero value is a
// no-op. A hot path pays exactly one nil check per emit site when telemetry
// is disabled, and no emit site sits on a per-bit loop — every event is per
// frame, per error, or per fast-forward span.
//
// A Hub is safe for concurrent emission. The experiment runner shares one
// hub across a study's trials but runs them one after another (a set hub
// forces Workers = 1, since gauges keep the last write and float folds
// depend on the order of adds): node registration dedupes by name, so the
// per-node metric instruments aggregate across trials.
// Consumers that need canonical bit-time order (forensics, the durable
// store) subscribe to the hub's one sequencer, which hands them released
// runs of the stream as ordered batches (SubscribeOrdered).
package telemetry

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Kind identifies an event type on the telemetry bus.
type Kind uint8

// The event taxonomy (DESIGN.md §5). A and B are kind-specific arguments;
// see the per-kind comments.
const (
	// EvArbWon: a transmitter survived the arbitration field and owns the
	// bus for the rest of the frame. A = the frame's CAN ID.
	EvArbWon Kind = iota + 1
	// EvArbLost: a transmitter saw a dominant overwrite on a recessive
	// arbitration bit and dropped to receiver. A = the wire index (SOF = 0)
	// at which it lost.
	EvArbLost
	// EvDetect: the defense FSM reached a malicious verdict. A = the
	// decision bit position within the 11-bit CAN ID (1-11).
	EvDetect
	// EvPullStart: a counterattack pull began (CAN_TX multiplexed to GPIO
	// and pulled dominant). A = the pull width in bits.
	EvPullStart
	// EvPullEnd: the counterattack released CAN_TX. A = the pull width in
	// bits that was driven.
	EvPullEnd
	// EvError: a protocol error was detected and error signalling begins.
	// A = the error kind code (the controller package's ErrorKind values:
	// 1 bit, 2 stuff, 3 form, 4 crc, 5 ack), B = 1 when this node was the
	// frame's transmitter (its attempt was destroyed), 0 for a receiver.
	EvError
	// EvErrorEnd: the error delimiter completed; the episode is over.
	EvErrorEnd
	// EvTEC: the transmit error counter changed. A = new value, B = old.
	EvTEC
	// EvREC: the receive error counter changed. A = new value, B = old.
	EvREC
	// EvBusOff: the node's TEC reached the bus-off threshold and it left
	// the bus.
	EvBusOff
	// EvRecover: a bus-off node completed the 128×11-recessive-bit recovery
	// sequence and rejoined as error-active.
	EvRecover
	// EvFFSpan: the bus committed a fast-path span. A = the span length in
	// bits, B = 0 for the idle quiescence path, 2 for the committed-span
	// (contend) path, 3 for the compiled-splice (whole-frame cache) path.
	// Codes 1 (the sole-transmitter frame path) and 4 (the hyperperiod
	// path) are retired: the bus no longer emits them, stores written
	// before their removal still hold them, the JSONL and Chrome views still
	// name them, and the hub counts them in no rung's counter.
	EvFFSpan
	// EvTxStart: a controller began a transmission attempt — the SOF bit of
	// a frame it is driving. A = the pending frame's CAN ID. The event time
	// is the SOF bit on the wire, which is what lets the forensics engine
	// line attempts up with the trace decoder's episode boundaries.
	EvTxStart
	// EvTxSuccess: a transmission completed acknowledged and error-free.
	// A = the frame's CAN ID; the event time is the final EOF bit.
	EvTxSuccess
	// EvAlert: the watch engine changed an alert rule's state. A = the rule
	// index (watch.Rule), B = 1 on fire, 0 on resolve. Alerts describe the
	// observer, not the simulated network: they bypass the hub's sequencer,
	// so ordered subscribers (forensics, the store sink) never see them.
	EvAlert
)

// String names the kind as it appears in the JSONL stream.
func (k Kind) String() string {
	switch k {
	case EvArbWon:
		return "arb_won"
	case EvArbLost:
		return "arb_lost"
	case EvDetect:
		return "detect"
	case EvPullStart:
		return "pull_start"
	case EvPullEnd:
		return "pull_end"
	case EvError:
		return "error"
	case EvErrorEnd:
		return "error_end"
	case EvTEC:
		return "tec"
	case EvREC:
		return "rec"
	case EvBusOff:
		return "bus_off"
	case EvRecover:
		return "recover"
	case EvFFSpan:
		return "ff_span"
	case EvTxStart:
		return "tx_start"
	case EvTxSuccess:
		return "tx_success"
	case EvAlert:
		return "alert"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// errorKindNames mirrors the controller package's ErrorKind codes without
// importing it (telemetry is a leaf package).
var errorKindNames = [...]string{"", "bit", "stuff", "form", "crc", "ack"}

// ErrorKindName names an EvError A-argument code.
func ErrorKindName(code int64) string {
	if code > 0 && int(code) < len(errorKindNames) {
		return errorKindNames[code]
	}
	return fmt.Sprintf("kind%d", code)
}

// Event is one fixed-size telemetry record. Time is the simulated bit time
// of the event (a bus.BitTime, held as int64 so this package stays a leaf).
type Event struct {
	Time int64
	Kind Kind
	Node NodeID
	A, B int64
}

// NodeID indexes a registered node within a Hub.
type NodeID int32

// nodeInstruments holds the pre-resolved per-node metric handles so that
// folding an event into the registry is a few atomic operations — no map
// lookups, no label formatting, no allocation on the emit path.
type nodeInstruments struct {
	arbWon, arbLost             *Counter
	detections                  *Counter
	detectionBits               *Histogram
	pulls                       *Counter
	pullBits                    *Counter
	errors                      *Counter
	framesDestroyed             *Counter
	busOff, recovered           *Counter
	tec, rec                    *Gauge
	ffIdle, ffContend, ffSplice *Counter
	txStarts, txSuccess         *Counter
}

// Hub is the telemetry collector: a registry of named nodes, an append-only
// event log, a metrics registry fed by the same emit calls, and the one
// reorder buffer that turns the emitted stream into canonical-order batches.
// Create with NewHub; a nil *Hub is a valid "disabled" hub (Probe returns a
// no-op probe).
type Hub struct {
	// mu guards node registration, the retained log and subscription
	// changes. An emit takes it only to append to a retained log.
	mu      sync.Mutex
	names   []string
	byName  map[string]NodeID
	perNode []*nodeInstruments
	events  []Event
	retain  atomic.Bool
	reg     *Registry
	// subs is the raw subscriber list, replaced wholesale on every
	// Subscribe/unsubscribe (copy-on-write) and read through an atomic
	// pointer, so a steady-state emit neither locks nor copies and
	// subscribers may call back into the hub without deadlocking.
	subs      atomic.Pointer[[]subscriber]
	nextSubID int
	// seqMu serializes the ordered path: the sequencer, the ordered
	// subscribers (each identified by its callback's address) and batch
	// delivery, which runs under it so batches reach every subscriber in
	// release order even with concurrent emitters. sequencing mirrors
	// len(ordered) > 0, so an emit with no ordered subscriber neither locks
	// nor buffers.
	seqMu      sync.Mutex
	seq        sequencer
	ordered    []*func([]Event)
	sequencing atomic.Bool
	// emits counts every event ever emitted through this hub, retained or
	// not. It is the O(1) "logical updates" proxy the fleet's thresholded
	// net-commit policy checks per scheduling slice: comparing two EmitCount
	// readings tells a worker how much telemetry a vehicle produced without
	// scanning its registry.
	emits atomic.Int64
}

// subscriber is one registered raw streaming consumer.
type subscriber struct {
	id int
	fn func(Event)
}

// NewHub creates an empty hub that retains events.
func NewHub() *Hub {
	h := &Hub{byName: make(map[string]NodeID), reg: NewRegistry()}
	h.retain.Store(true)
	h.subs.Store(&[]subscriber{})
	return h
}

// RetainEvents toggles event retention. Metrics-only consumers (the
// experiment runner aggregating thousands of trials) disable retention so
// the log cannot grow without bound; metric folding is unaffected.
func (h *Hub) RetainEvents(on bool) {
	if h == nil {
		return
	}
	h.retain.Store(on)
}

// Registry returns the hub's metrics registry (never nil for a non-nil hub).
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.reg
}

// Probe registers (or looks up) a named node and returns its emit handle.
// Calling Probe with the same name returns a handle to the same node, which
// is what lets a shared hub aggregate per-node metrics across the trials an
// experiment runs on it one after another, all naming their defender
// "defender". Probe on a nil hub
// returns the zero Probe, whose Emit is a no-op after one nil check.
func (h *Hub) Probe(name string) Probe {
	if h == nil {
		return Probe{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	id, ok := h.byName[name]
	if !ok {
		id = NodeID(len(h.names))
		h.byName[name] = id
		h.names = append(h.names, name)
		h.perNode = append(h.perNode, h.instrumentsFor(name))
	}
	return Probe{hub: h, node: id, ni: h.perNode[id]}
}

// instrumentsFor pre-resolves the per-node metric handles. Called with h.mu
// held.
func (h *Hub) instrumentsFor(name string) *nodeInstruments {
	r := h.reg
	return &nodeInstruments{
		arbWon:          r.Counter("michican_arbitration_won_total", "node", name),
		arbLost:         r.Counter("michican_arbitration_lost_total", "node", name),
		detections:      r.Counter("michican_detections_total", "node", name),
		detectionBits:   r.Histogram("michican_detection_bits", "node", name),
		pulls:           r.Counter("michican_counterattacks_total", "node", name),
		pullBits:        r.Counter("michican_counterattack_bits_total", "node", name),
		errors:          r.Counter("michican_errors_total", "node", name),
		framesDestroyed: r.Counter("michican_frames_destroyed_total", "node", name),
		busOff:          r.Counter("michican_busoff_total", "node", name),
		recovered:       r.Counter("michican_recoveries_total", "node", name),
		tec:             r.Gauge("michican_tec", "node", name),
		rec:             r.Gauge("michican_rec", "node", name),
		ffIdle:          r.Counter("michican_ff_idle_bits_total", "node", name),
		ffContend:       r.Counter("michican_ff_contend_bits_total", "node", name),
		ffSplice:        r.Counter("michican_ff_splice_bits_total", "node", name),
		txStarts:        r.Counter("michican_tx_attempts_total", "node", name),
		txSuccess:       r.Counter("michican_tx_success_total", "node", name),
	}
}

// NodeName returns the registered name of a node ID ("" if out of range).
func (h *Hub) NodeName(id NodeID) string {
	if h == nil {
		return ""
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if int(id) < 0 || int(id) >= len(h.names) {
		return ""
	}
	return h.names[id]
}

// Nodes returns the registered node names in registration order.
func (h *Hub) Nodes() []string {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, len(h.names))
	copy(out, h.names)
	return out
}

// Events returns a snapshot of the retained event log.
func (h *Hub) Events() []Event {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Event, len(h.events))
	copy(out, h.events)
	return out
}

// Len returns the number of retained events.
func (h *Hub) Len() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.events)
}

// Subscribe registers a raw streaming consumer and returns its cancel
// function. The callback is invoked synchronously from every Emit, after
// the event has been retained (if retention is on) and released to ordered
// subscribers, and before Emit returns — so a single-threaded simulation
// delivers events to it in exact emission order. When multiple goroutines
// emit concurrently, callbacks run concurrently too: subscribers that keep
// state must do their own locking.
func (h *Hub) Subscribe(fn func(Event)) (unsubscribe func()) {
	if h == nil || fn == nil {
		return func() {}
	}
	h.mu.Lock()
	id := h.nextSubID
	h.nextSubID++
	subs := append(slices.Clip(*h.subs.Load()), subscriber{id: id, fn: fn})
	h.subs.Store(&subs)
	h.mu.Unlock()
	return func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		subs := slices.DeleteFunc(slices.Clone(*h.subs.Load()), func(s subscriber) bool { return s.id == id })
		h.subs.Store(&subs)
	}
}

// SubscribeOrdered registers a consumer of the canonical-order stream and
// returns its cancel function. While an ordered subscriber is attached,
// every event except EvAlert passes through the hub's one sequencer: once
// 1024 events are buffered, each emit releases those more than 4096 bits
// older than the newest, and Flush releases the rest. Each released run
// reaches every ordered subscriber as one batch in canonical (Time, Node,
// arrival) order, the order WriteJSONL writes, before the emit that
// released it fans out to raw subscribers. The batch is valid only during
// the callback, which runs under the hub's sequencing lock: it may emit
// EvAlert (alerts bypass the sequencer) but no other kind, and must not
// call Flush or (un)subscribe an ordered consumer. When the last ordered
// subscriber leaves, the buffer is dropped.
func (h *Hub) SubscribeOrdered(fn func([]Event)) (unsubscribe func()) {
	if h == nil || fn == nil {
		return func() {}
	}
	sub := &fn
	h.seqMu.Lock()
	h.ordered = append(h.ordered, sub)
	h.sequencing.Store(true)
	h.seqMu.Unlock()
	return func() {
		h.seqMu.Lock()
		defer h.seqMu.Unlock()
		h.ordered = slices.DeleteFunc(h.ordered, func(o *func([]Event)) bool { return o == sub })
		if len(h.ordered) == 0 {
			h.sequencing.Store(false)
			h.seq = sequencer{buf: h.seq.buf[:0], late: h.seq.late}
		}
	}
}

// Flush releases every event the sequencer still buffers to the ordered
// subscribers. Call once emission has stopped (end of run, before a
// consumer detaches); an event emitted after a Flush counts as late unless
// it is newer than everything flushed.
func (h *Hub) Flush() {
	if h == nil {
		return
	}
	h.seqMu.Lock()
	defer h.seqMu.Unlock()
	h.seq.release(h.seq.maxT+1, h.ordered)
}

// LateEvents returns how many sequenced events arrived older than the
// cutoff of a release already delivered, so possibly out of canonical
// order. The sequencer's slack makes this zero for every stream the
// simulator emits; tests assert it.
func (h *Hub) LateEvents() int64 {
	if h == nil {
		return 0
	}
	h.seqMu.Lock()
	defer h.seqMu.Unlock()
	return h.seq.late
}

// EmitCount returns the number of events emitted through the hub so far
// (independent of retention).
func (h *Hub) EmitCount() int64 {
	if h == nil {
		return 0
	}
	return h.emits.Load()
}

// emit appends the event to the retained log, folds it into the metrics
// registry, releases it through the sequencer to ordered subscribers, and
// fans it out to raw subscribers.
func (h *Hub) emit(ni *nodeInstruments, ev Event) {
	h.emits.Add(1)
	if h.retain.Load() {
		h.mu.Lock()
		h.events = append(h.events, ev)
		h.mu.Unlock()
	}

	switch ev.Kind {
	case EvArbWon:
		ni.arbWon.Inc()
	case EvArbLost:
		ni.arbLost.Inc()
	case EvDetect:
		ni.detections.Inc()
		ni.detectionBits.Observe(float64(ev.A))
	case EvPullStart:
		ni.pulls.Inc()
	case EvPullEnd:
		ni.pullBits.Add(ev.A)
	case EvError:
		ni.errors.Inc()
		if ev.B != 0 {
			ni.framesDestroyed.Inc()
		}
	case EvTEC:
		ni.tec.Set(float64(ev.A))
	case EvREC:
		ni.rec.Set(float64(ev.A))
	case EvBusOff:
		ni.busOff.Inc()
	case EvRecover:
		ni.recovered.Inc()
	case EvFFSpan:
		switch ev.B { // retired and unknown path codes count nowhere
		case 0:
			ni.ffIdle.Add(ev.A)
		case 2:
			ni.ffContend.Add(ev.A)
		case 3:
			ni.ffSplice.Add(ev.A)
		}
	case EvTxStart:
		ni.txStarts.Inc()
	case EvTxSuccess:
		ni.txSuccess.Inc()
	}
	if ev.Kind != EvAlert && h.sequencing.Load() {
		h.seqMu.Lock()
		if len(h.ordered) > 0 {
			h.seq.add(ev, h.ordered)
		}
		h.seqMu.Unlock()
	}
	for _, s := range *h.subs.Load() {
		s.fn(ev)
	}
}

// Probe is a node's emit handle: a hub pointer plus a pre-registered node
// ID. The zero Probe is disabled — Emit returns after a single nil check —
// so datapath structs embed a Probe and never branch on configuration.
type Probe struct {
	hub  *Hub
	node NodeID
	ni   *nodeInstruments
}

// Enabled reports whether this probe is wired to a hub. Emit sites that
// need to compute arguments (diffing TEC against the last emitted value)
// guard the computation with Enabled; plain emits just call Emit.
func (p Probe) Enabled() bool { return p.hub != nil }

// Emit records one event at simulated bit time t. It is a no-op on the zero
// Probe.
func (p Probe) Emit(t int64, kind Kind, a, b int64) {
	if p.hub == nil {
		return
	}
	p.hub.emit(p.ni, Event{Time: t, Kind: kind, Node: p.node, A: a, B: b})
}
