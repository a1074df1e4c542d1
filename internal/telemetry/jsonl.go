package telemetry

import (
	"bufio"
	"io"
	"sort"
	"strconv"
)

// sortedEvents snapshots the event log in global bit-time order. Each node's
// own emissions are monotone in time, but batch (fast-path) delivery appends
// whole per-node spans one node at a time, so the raw log can interleave
// across nodes; a stable sort restores global order while preserving every
// node's begin/end pairing order.
// The secondary key is the node ID so that ties at the same bit time land in
// a canonical order regardless of stepping mode: per-node streams are
// identical across exact and batch delivery, and the stable sort keeps each
// node's same-time emissions in program order.
func (h *Hub) sortedEvents() []Event {
	events := h.Events()
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Time != events[j].Time {
			return events[i].Time < events[j].Time
		}
		return events[i].Node < events[j].Node
	})
	return events
}

// WriteJSONL streams the retained event log as one JSON object per line, in
// bit-time order. Kind-specific arguments are decoded into named fields so
// the stream is self-describing:
//
//	{"t":1042,"node":"michican","event":"detect","bit":5}
//	{"t":1056,"node":"michican","event":"pull_start","bits":7}
//	{"t":1063,"node":"attacker","event":"error","kind":"bit","role":"tx"}
//	{"t":1079,"node":"attacker","event":"tec","value":8,"prev":0}
func (h *Hub) WriteJSONL(w io.Writer) error {
	if h == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, ev := range h.sortedEvents() {
		if err := writeEventJSON(bw, h.NodeName(ev.Node), ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeEventJSON renders one event plus its newline straight into the
// writer's free buffer space, so a steady stream allocates nothing per event.
// Kept as the internal convenience the streaming exporters use;
// AppendEventJSON is the canonical encoder.
func writeEventJSON(w *bufio.Writer, node string, ev Event) error {
	buf := AppendEventJSON(w.AvailableBuffer(), node, ev)
	buf = append(buf, '\n')
	_, err := w.Write(buf)
	return err
}

// ffPathNames names the EvFFSpan B-argument path codes (see EvFFSpan) as they
// appear in the JSONL stream and, suffixed "-ff", on Chrome trace spans. The
// retired codes 1 and 4 keep their names so older stores read back as
// written.
var ffPathNames = [...]string{"idle", "frame", "contend", "splice", "hyper"}

// ffPathName names an EvFFSpan path code; unknown codes read as "idle".
func ffPathName(code int64) string {
	if code > 0 && code < int64(len(ffPathNames)) {
		return ffPathNames[code]
	}
	return ffPathNames[0]
}

// viewArgs returns the A and B arguments the JSONL view keeps of an event of
// kind k, which are what ParseEventJSON reads back from AppendEventJSON's
// line: only the arguments the kind names, flags (error role, alert state)
// as 0/1, and unknown ff_span path codes as 0 ("idle"). Kinds without
// arguments, and unknown kinds, keep neither.
func viewArgs(k Kind, a, b int64) (int64, int64) {
	switch k {
	case EvArbWon, EvTxStart, EvTxSuccess, EvArbLost, EvDetect, EvPullStart, EvPullEnd:
		return a, 0
	case EvError, EvAlert:
		if b != 0 {
			b = 1
		}
		return a, b
	case EvTEC, EvREC:
		return a, b
	case EvFFSpan:
		if b < 0 || b >= int64(len(ffPathNames)) {
			b = 0
		}
		return a, b
	}
	return 0, 0
}

// appendQuoted appends s as a quoted string literal. Printable ASCII other
// than the quote and backslash quotes to itself, which covers every name the
// simulator emits; anything else takes strconv.AppendQuote, so the bytes are
// exactly what AppendQuote would write either way.
func appendQuoted(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendHexID appends a CAN ID field as upper-case hex, zero-padded to three
// digits ("0x07B").
func appendHexID(dst []byte, id int64) []byte {
	dst = append(dst, `,"id":"0x`...)
	mark := len(dst)
	dst = strconv.AppendInt(dst, id, 16)
	if pad := 3 - (len(dst) - mark); pad > 0 {
		dst = append(dst, "000"[:pad]...)
		copy(dst[mark+pad:], dst[mark:])
		copy(dst[mark:mark+pad], "000")
	}
	for i := mark; i < len(dst); i++ {
		if c := dst[i]; c >= 'a' && c <= 'f' {
			dst[i] = c - ('a' - 'A')
		}
	}
	return append(dst, '"')
}

// AppendEventJSON appends one event's JSONL record (without the trailing
// newline) to dst and returns the grown slice. The encoding is hand-rolled
// rather than encoding/json: the field set depends on the kind, and the
// stable field order keeps the stream diffable across runs. Exported so the
// durable store's export views (window reads over HTTP, candump, replay)
// write the exact bytes WriteJSONL would, and so they stay one encoder.
func AppendEventJSON(dst []byte, node string, ev Event) []byte {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, ev.Time, 10)
	dst = append(dst, `,"node":`...)
	dst = appendQuoted(dst, node)
	dst = append(dst, `,"event":`...)
	dst = appendQuoted(dst, ev.Kind.String())
	switch ev.Kind {
	case EvArbWon, EvTxStart, EvTxSuccess:
		dst = appendHexID(dst, ev.A)
	case EvArbLost:
		dst = append(dst, `,"at_wire_bit":`...)
		dst = strconv.AppendInt(dst, ev.A, 10)
	case EvDetect:
		dst = append(dst, `,"bit":`...)
		dst = strconv.AppendInt(dst, ev.A, 10)
	case EvPullStart, EvPullEnd:
		dst = append(dst, `,"bits":`...)
		dst = strconv.AppendInt(dst, ev.A, 10)
	case EvError:
		dst = append(dst, `,"kind":`...)
		dst = appendQuoted(dst, ErrorKindName(ev.A))
		dst = append(dst, `,"role":`...)
		if ev.B != 0 {
			dst = append(dst, `"tx"`...)
		} else {
			dst = append(dst, `"rx"`...)
		}
	case EvTEC, EvREC:
		dst = append(dst, `,"value":`...)
		dst = strconv.AppendInt(dst, ev.A, 10)
		dst = append(dst, `,"prev":`...)
		dst = strconv.AppendInt(dst, ev.B, 10)
	case EvFFSpan:
		dst = append(dst, `,"bits":`...)
		dst = strconv.AppendInt(dst, ev.A, 10)
		dst = append(dst, `,"path":`...)
		dst = appendQuoted(dst, ffPathName(ev.B))
	case EvAlert:
		dst = append(dst, `,"rule":`...)
		dst = strconv.AppendInt(dst, ev.A, 10)
		dst = append(dst, `,"state":`...)
		if ev.B != 0 {
			dst = append(dst, `"fire"`...)
		} else {
			dst = append(dst, `"resolve"`...)
		}
	case EvErrorEnd, EvBusOff, EvRecover:
		// No arguments.
	}
	return append(dst, '}')
}
