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
// A Hub is safe for concurrent emission, so the parallel experiment runner
// can share one hub across trials: node registration dedupes by name, and
// the per-node metric instruments aggregate across trials through atomics.
package telemetry

import (
	"fmt"
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
	// bits, B = 0 for the idle quiescence path, 1 for the sole-transmitter
	// frame path, 2 for the contested-window (multi-driver) path, 3 for the
	// compiled-splice (whole-frame cache) path.
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
	// observer, not the simulated network: the forensics engine ignores
	// them.
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
	arbWon, arbLost                      *Counter
	detections                           *Counter
	detectionBits                        *Histogram
	pulls                                *Counter
	pullBits                             *Counter
	errors                               *Counter
	framesDestroyed                      *Counter
	busOff, recovered                    *Counter
	tec, rec                             *Gauge
	ffIdle, ffFrame, ffContend, ffSplice *Counter
	txStarts, txSuccess                  *Counter
}

// Hub is the telemetry collector: a registry of named nodes, an append-only
// event log, and a metrics registry fed by the same emit calls. Create with
// NewHub; a nil *Hub is a valid "disabled" hub (Probe returns a no-op probe).
type Hub struct {
	mu      sync.Mutex
	names   []string
	byName  map[string]NodeID
	perNode []*nodeInstruments
	events  []Event
	retain  bool
	reg     *Registry
	// subs is the subscriber list, replaced wholesale on every
	// Subscribe/unsubscribe (copy-on-write): emit reads the slice header
	// under mu and iterates outside it, so a steady-state emit never copies
	// and subscribers may call back into the hub without deadlocking.
	subs      []subscriber
	nextSubID int
	// emits counts every event ever emitted through this hub, retained or
	// not. It is the O(1) "logical updates" proxy the fleet's thresholded
	// net-commit policy checks per scheduling slice: comparing two EmitCount
	// readings tells a worker how much telemetry a vehicle produced without
	// scanning its registry.
	emits atomic.Int64
}

// subscriber is one registered streaming consumer.
type subscriber struct {
	id int
	fn func(Event)
}

// NewHub creates an empty hub that retains events.
func NewHub() *Hub {
	return &Hub{byName: make(map[string]NodeID), retain: true, reg: NewRegistry()}
}

// RetainEvents toggles event retention. Metrics-only consumers (the
// experiment runner aggregating thousands of trials) disable retention so
// the log cannot grow without bound; metric folding is unaffected.
func (h *Hub) RetainEvents(on bool) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.retain = on
	h.mu.Unlock()
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
// is what lets a shared hub aggregate per-node metrics across parallel
// trials that all name their defender "defender". Probe on a nil hub
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
	return Probe{hub: h, node: id}
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
		ffFrame:         r.Counter("michican_ff_frame_bits_total", "node", name),
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

// Subscribe registers a streaming consumer and returns its cancel function.
// The callback is invoked synchronously from every Emit, outside the hub
// lock, after the event has been retained (if retention is on) and before
// Emit returns — so a single-threaded simulation delivers events to
// subscribers in exact emission order, with no retained-log copy needed.
// When multiple goroutines emit concurrently, callbacks run concurrently
// too: subscribers that keep state must do their own locking.
func (h *Hub) Subscribe(fn func(Event)) (unsubscribe func()) {
	if h == nil || fn == nil {
		return func() {}
	}
	h.mu.Lock()
	id := h.nextSubID
	h.nextSubID++
	subs := make([]subscriber, len(h.subs), len(h.subs)+1)
	copy(subs, h.subs)
	h.subs = append(subs, subscriber{id: id, fn: fn})
	h.mu.Unlock()
	return func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		subs := make([]subscriber, 0, len(h.subs))
		for _, s := range h.subs {
			if s.id != id {
				subs = append(subs, s)
			}
		}
		h.subs = subs
	}
}

// EmitCount returns the number of events emitted through the hub so far
// (independent of retention).
func (h *Hub) EmitCount() int64 {
	if h == nil {
		return 0
	}
	return h.emits.Load()
}

// emit appends the event, folds it into the metrics registry, and fans it
// out to subscribers.
func (h *Hub) emit(ev Event) {
	h.emits.Add(1)
	h.mu.Lock()
	if h.retain {
		h.events = append(h.events, ev)
	}
	ni := h.perNode[ev.Node]
	subs := h.subs
	h.mu.Unlock()

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
		switch ev.B {
		case 0:
			ni.ffIdle.Add(ev.A)
		case 1:
			ni.ffFrame.Add(ev.A)
		case 3:
			ni.ffSplice.Add(ev.A)
		default:
			ni.ffContend.Add(ev.A)
		}
	case EvTxStart:
		ni.txStarts.Inc()
	case EvTxSuccess:
		ni.txSuccess.Inc()
	}
	for _, s := range subs {
		s.fn(ev)
	}
}

// Probe is a node's emit handle: a hub pointer plus a pre-registered node
// ID. The zero Probe is disabled — Emit returns after a single nil check —
// so datapath structs embed a Probe and never branch on configuration.
type Probe struct {
	hub  *Hub
	node NodeID
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
	p.hub.emit(Event{Time: t, Kind: kind, Node: p.node, A: a, B: b})
}
