package telemetry

import (
	"encoding/binary"
	"errors"
)

// AppendEventRecord appends one event's compact binary record to dst and
// returns the grown slice:
//
//	varint Time | u8 Kind | varint A | varint B | uvarint len(node) | node
//
// A and B are stored as the JSONL view keeps them, so ParseEventRecord reads
// back exactly what ParseEventJSON reads from AppendEventJSON's line for the
// same event; JSONL stays the export view of a stored stream. The node name
// is inline, so every record decodes on its own. The record was the store's
// event payload in format 3; since format 4 the store keeps event blocks
// (block.go), and the record's bytes remain what a checkpoint's prefix hash
// covers.
func AppendEventRecord(dst []byte, node string, ev Event) []byte {
	a, b := viewArgs(ev.Kind, ev.A, ev.B)
	dst = binary.AppendVarint(dst, ev.Time)
	dst = append(dst, byte(ev.Kind))
	dst = binary.AppendVarint(dst, a)
	dst = binary.AppendVarint(dst, b)
	dst = binary.AppendUvarint(dst, uint64(len(node)))
	return append(dst, node...)
}

// maxNodeNames bounds a NodeNames table. A stream names a handful of nodes;
// a record stream naming more than this (damaged or hostile input) decodes
// the rest without interning rather than growing the table without limit.
const maxNodeNames = 64

// NodeNames interns the node names ParseEventRecord decodes, so reading a
// stream allocates each distinct name once rather than once per event. The
// zero value is ready to use.
type NodeNames struct{ names []string }

func (n *NodeNames) intern(b []byte) string {
	for _, s := range n.names {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	if len(n.names) < maxNodeNames {
		n.names = append(n.names, s)
	}
	return s
}

var errBadRecord = errors.New("telemetry: malformed event record")

// ParseEventRecord decodes one record AppendEventRecord wrote, interning node
// names in names. Truncated input, trailing bytes and unknown kinds are
// errors.
func ParseEventRecord(p []byte, names *NodeNames) (NamedEvent, error) {
	var ev NamedEvent
	var n int
	if ev.Time, n = binary.Varint(p); n <= 0 || n == len(p) {
		return NamedEvent{}, errBadRecord
	}
	ev.Kind, p = Kind(p[n]), p[n+1:]
	if ev.Kind < EvArbWon || ev.Kind > EvAlert {
		return NamedEvent{}, errors.New("telemetry: event record of unknown kind " + ev.Kind.String())
	}
	if ev.A, n = binary.Varint(p); n <= 0 {
		return NamedEvent{}, errBadRecord
	}
	p = p[n:]
	if ev.B, n = binary.Varint(p); n <= 0 {
		return NamedEvent{}, errBadRecord
	}
	p = p[n:]
	ln, n := binary.Uvarint(p)
	if n <= 0 || ln != uint64(len(p)-n) {
		return NamedEvent{}, errBadRecord
	}
	ev.Node = names.intern(p[n:])
	return ev, nil
}
