package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome trace_event JSON array format
// (consumed by Perfetto and chrome://tracing).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level trace_event envelope.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata,omitempty"`
}

// openSpan tracks a begin event awaiting its end.
type openSpan struct {
	name string
	ts   float64
	args map[string]any
}

// WriteChromeTrace renders the retained event log as a Chrome trace_event
// JSON document: one thread track per registered node, spans over simulated
// bit time mapped to microseconds at the given bus rate, TEC/REC as counter
// tracks, and instant markers for arbitration outcomes and detection
// verdicts. Open it in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Span pairing per node: counterattack pulls (pull_start→pull_end), error
// episodes (error→error_end, or →bus_off when the node leaves the bus
// mid-episode), bus-off confinement (bus_off→recover), and fast-path spans
// (ff_span, emitted pre-paired with a duration). Spans still open at the end
// of the capture are closed at the last event's time.
func (h *Hub) WriteChromeTrace(w io.Writer, bitsPerSecond int64) error {
	if h == nil {
		return nil
	}
	if bitsPerSecond <= 0 {
		return fmt.Errorf("telemetry: chrome trace needs a positive bus rate, got %d", bitsPerSecond)
	}
	usPerBit := 1e6 / float64(bitsPerSecond)
	events := h.sortedEvents()
	nodes := h.Nodes()

	const pid = 1
	out := chromeTrace{
		DisplayTimeUnit: "ms",
		Metadata:        map[string]any{"source": "michican telemetry", "bus_rate_bits_per_second": bitsPerSecond},
	}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": "michican"},
	})
	for i, name := range nodes {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: i + 1,
			Args: map[string]any{"name": name},
		})
	}

	var end float64
	if n := len(events); n > 0 {
		end = float64(events[n-1].Time) * usPerBit
	}

	// Per-node open spans, one slot per pairable span class.
	type spanState struct {
		pull, errEp, busOff *openSpan
	}
	state := make([]spanState, len(nodes))
	closeSpan := func(tid int, sp *openSpan, ts float64) {
		dur := ts - sp.ts
		if dur <= 0 {
			dur = usPerBit // zero-width spans vanish in Perfetto; show one bit
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: sp.name, Ph: "X", Ts: sp.ts, Dur: dur, Pid: pid, Tid: tid, Args: sp.args,
		})
	}

	for _, ev := range events {
		tid := int(ev.Node) + 1
		ts := float64(ev.Time) * usPerBit
		st := &state[ev.Node]
		switch ev.Kind {
		case EvArbWon:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("arb won 0x%03X", ev.A), Ph: "i", Ts: ts, Pid: pid, Tid: tid, S: "t",
			})
		case EvArbLost:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "arb lost", Ph: "i", Ts: ts, Pid: pid, Tid: tid, S: "t",
				Args: map[string]any{"at_wire_bit": ev.A},
			})
		case EvDetect:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("detect@bit%d", ev.A), Ph: "i", Ts: ts, Pid: pid, Tid: tid, S: "t",
				Args: map[string]any{"decision_bit": ev.A},
			})
		case EvPullStart:
			st.pull = &openSpan{name: "counterattack", ts: ts, args: map[string]any{"pull_bits": ev.A}}
		case EvPullEnd:
			if st.pull != nil {
				closeSpan(tid, st.pull, ts)
				st.pull = nil
			}
		case EvError:
			st.errEp = &openSpan{
				name: "error(" + ErrorKindName(ev.A) + ")", ts: ts,
				args: map[string]any{"kind": ErrorKindName(ev.A), "transmitter": ev.B != 0},
			}
		case EvErrorEnd:
			if st.errEp != nil {
				closeSpan(tid, st.errEp, ts)
				st.errEp = nil
			}
		case EvBusOff:
			if st.errEp != nil {
				closeSpan(tid, st.errEp, ts)
				st.errEp = nil
			}
			st.busOff = &openSpan{name: "bus-off", ts: ts}
		case EvRecover:
			if st.busOff != nil {
				closeSpan(tid, st.busOff, ts)
				st.busOff = nil
			}
		case EvTEC:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "TEC", Ph: "C", Ts: ts, Pid: pid, Tid: tid,
				Args: map[string]any{"tec": ev.A},
			})
		case EvREC:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "REC", Ph: "C", Ts: ts, Pid: pid, Tid: tid,
				Args: map[string]any{"rec": ev.A},
			})
		case EvFFSpan:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: ffPathName(ev.B) + "-ff", Ph: "X", Ts: ts, Dur: float64(ev.A) * usPerBit, Pid: pid, Tid: tid,
				Args: map[string]any{"bits": ev.A},
			})
		case EvAlert:
			state := "resolve"
			if ev.B != 0 {
				state = "fire"
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("alert %s rule%d", state, ev.A), Ph: "i", Ts: ts, Pid: pid, Tid: tid, S: "t",
				Args: map[string]any{"rule": ev.A, "state": state},
			})
		}
	}

	// Close spans that were still open when the capture ended.
	for i := range state {
		tid := i + 1
		for _, sp := range []*openSpan{state[i].pull, state[i].errEp, state[i].busOff} {
			if sp != nil {
				closeSpan(tid, sp, end)
			}
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
