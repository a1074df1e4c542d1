package telemetry

import (
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// An event block is the durable store's event payload since store format
// 4: a run of events behind one header, so the store frames, checksums and
// indexes a block rather than each event.
//
//	uvarint count | varint minT | uvarint maxT-minT |
//	uvarint nodes | nodes × (uvarint len(name) | name) |
//	count × (varint Δt | uvarint node<<4|Kind | [varint A] | [varint B])
//
// minT and maxT bound the block's event times, so a reader can skip a block
// from its header alone. Δt is an event's time minus the previous event's
// (the first event's minus zero); node indexes the block's name table,
// which lists each node the block names once, in first-use order, and
// shares a byte with the kind while the block names at most eight nodes.
// A and B are projected as AppendEventRecord projects them, so every event
// decodes to exactly what ParseEventRecord reads from its format-3 record;
// an argument the projection always zeroes for the kind (B of a frame
// event, both of error_end) is not stored.

// Kinds take the low four bits of an event's kind-and-node field.
const _ = uint(15 - EvAlert)

// blockArgs returns how many of A and B an event of kind k stores: those
// viewArgs does not always zero.
func blockArgs(k Kind) int {
	switch k {
	case EvArbWon, EvTxStart, EvTxSuccess, EvArbLost, EvDetect, EvPullStart, EvPullEnd:
		return 1
	case EvError, EvAlert, EvTEC, EvREC, EvFFSpan:
		return 2
	}
	return 0
}

// BlockHeader is the part of a block a reader needs to skip it: how many
// events it holds and the bounds of their times.
type BlockHeader struct {
	Events     int
	MinT, MaxT int64
}

// minEventBytes is the smallest encoded event: one byte each for Δt and the
// kind and node.
const minEventBytes = 2

var errBadBlock = errors.New("telemetry: malformed event block")

// parseBlockHeader reads the count and time bounds at the front of a block
// and returns the bytes after them.
func parseBlockHeader(p []byte) (BlockHeader, []byte, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 || count == 0 || count > uint64(len(p)/minEventBytes) {
		return BlockHeader{}, nil, errBadBlock
	}
	p = p[n:]
	minT, n := binary.Varint(p)
	if n <= 0 {
		return BlockHeader{}, nil, errBadBlock
	}
	p = p[n:]
	span, n := binary.Uvarint(p)
	if n <= 0 {
		return BlockHeader{}, nil, errBadBlock
	}
	return BlockHeader{Events: int(count), MinT: minT, MaxT: minT + int64(span)}, p[n:], nil
}

// ParseBlockHeader reads a block's header without decoding its events: the
// store's recovery scan and window skips use it.
func ParseBlockHeader(p []byte) (BlockHeader, error) {
	h, _, err := parseBlockHeader(p)
	return h, err
}

// BlockEncoder builds one event block at a time. The zero value is ready to
// use; Reset starts the next block and keeps every buffer.
type BlockEncoder struct {
	owned NodeNames // copies of the names AppendJSON reads, across blocks
	nodes []string  // this block's name table
	body  []byte    // this block's encoded events
	n     int
	prevT int64
	h     BlockHeader
}

// Append adds one event of the named node to the open block. The table
// keeps node itself, so its bytes must not change; a caller that passes the
// same string for every event of a node makes the table lookup a pointer
// comparison.
func (e *BlockEncoder) Append(node string, ev Event) {
	i := 0
	for i < len(e.nodes) && e.nodes[i] != node {
		i++
	}
	if i == len(e.nodes) {
		e.nodes = append(e.nodes, node)
	}
	kind := ev.Kind
	if kind < EvArbWon || kind > EvAlert {
		kind = 0 // stored as no kind at all, which decoding refuses
	}
	e.body = binary.AppendVarint(e.body, ev.Time-e.prevT)
	e.body = binary.AppendUvarint(e.body, uint64(i)<<4|uint64(kind))
	if args := blockArgs(kind); args > 0 {
		a, b := viewArgs(kind, ev.A, ev.B)
		e.body = binary.AppendVarint(e.body, a)
		if args == 2 {
			e.body = binary.AppendVarint(e.body, b)
		}
	}
	if e.n == 0 || ev.Time < e.h.MinT {
		e.h.MinT = ev.Time
	}
	if e.n == 0 || ev.Time > e.h.MaxT {
		e.h.MaxT = ev.Time
	}
	e.prevT = ev.Time
	e.n++
}

// AppendJSON adds the event one JSONL line holds, as ParseEventJSON reads
// it. A line AppendEventJSON wrote is added without allocating.
func (e *BlockEncoder) AppendJSON(line []byte) error {
	ev, err := parseEventJSON(line)
	if err != nil {
		return err
	}
	// The scanned name shares line's bytes; the block keeps an owned copy.
	e.Append(e.owned.own(ev.Node), Event{Time: ev.Time, Kind: ev.Kind, A: ev.A, B: ev.B})
	return nil
}

// Len returns the number of events in the open block.
func (e *BlockEncoder) Len() int { return e.n }

// Header returns the open block's header.
func (e *BlockEncoder) Header() BlockHeader {
	h := e.h
	h.Events = e.n
	return h
}

// AppendBlock appends the open block's encoding to dst. The block must hold
// at least one event; it stays open until Reset.
func (e *BlockEncoder) AppendBlock(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(e.n))
	dst = binary.AppendVarint(dst, e.h.MinT)
	dst = binary.AppendUvarint(dst, uint64(e.h.MaxT-e.h.MinT))
	dst = binary.AppendUvarint(dst, uint64(len(e.nodes)))
	for _, s := range e.nodes {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return append(dst, e.body...)
}

// Reset empties the open block.
func (e *BlockEncoder) Reset() {
	e.nodes = e.nodes[:0]
	e.body = e.body[:0]
	e.n, e.prevT, e.h = 0, 0, BlockHeader{}
}

// BlockDecoder reads the events of one block at a time, interning node
// names across blocks, so decoding a stream allocates nothing per event.
// The zero value is ready to use.
type BlockDecoder struct {
	names     NodeNames
	nodes     []string
	p         []byte
	left      int
	t, lo, hi int64
	h         BlockHeader
}

// Reset starts decoding block p and returns its header. p must stay
// unchanged until the block is read.
func (d *BlockDecoder) Reset(p []byte) (BlockHeader, error) {
	d.p, d.left, d.nodes = nil, 0, d.nodes[:0]
	h, p, err := parseBlockHeader(p)
	if err != nil {
		return BlockHeader{}, err
	}
	nodes, n := binary.Uvarint(p)
	if n <= 0 || nodes == 0 || nodes > uint64(h.Events) {
		return BlockHeader{}, errBadBlock
	}
	p = p[n:]
	for ; nodes > 0; nodes-- {
		ln, n := binary.Uvarint(p)
		if n <= 0 || ln > uint64(len(p)-n) {
			return BlockHeader{}, errBadBlock
		}
		d.nodes = append(d.nodes, d.names.intern(p[n:n+int(ln)]))
		p = p[n+int(ln):]
	}
	d.p, d.left, d.t, d.h = p, h.Events, 0, h
	d.lo, d.hi = h.MaxT, h.MinT
	return h, nil
}

// Next decodes the block's next event. After the last one it returns
// io.EOF, once the block has proved whole: no trailing bytes, and event
// times spanning exactly the header's bounds. Truncated input, an unknown
// kind or a node index past the table is an error.
func (d *BlockDecoder) Next() (NamedEvent, error) {
	if d.left == 0 {
		if len(d.p) != 0 || d.lo != d.h.MinT || d.hi != d.h.MaxT {
			return NamedEvent{}, errBadBlock
		}
		return NamedEvent{}, io.EOF
	}
	p := d.p
	dt, n := binary.Varint(p)
	if n <= 0 {
		return NamedEvent{}, errBadBlock
	}
	p = p[n:]
	kn, n := binary.Uvarint(p)
	if n <= 0 || kn>>4 >= uint64(len(d.nodes)) {
		return NamedEvent{}, errBadBlock
	}
	p = p[n:]
	ev := NamedEvent{Time: d.t + dt, Kind: Kind(kn & 15), Node: d.nodes[kn>>4]}
	if ev.Kind < EvArbWon || ev.Kind > EvAlert {
		return NamedEvent{}, errors.New("telemetry: event block holds an event of unknown kind " + ev.Kind.String())
	}
	if args := blockArgs(ev.Kind); args > 0 {
		if ev.A, n = binary.Varint(p); n <= 0 {
			return NamedEvent{}, errBadBlock
		}
		p = p[n:]
		if args == 2 {
			if ev.B, n = binary.Varint(p); n <= 0 {
				return NamedEvent{}, errBadBlock
			}
			p = p[n:]
		}
	}
	d.p = p
	d.t = ev.Time
	d.lo, d.hi = min(d.lo, ev.Time), max(d.hi, ev.Time)
	d.left--
	return ev, nil
}

// own returns an interned copy of s, as intern does for bytes.
func (n *NodeNames) own(s string) string {
	for _, t := range n.names {
		if t == s {
			return t
		}
	}
	s = strings.Clone(s)
	if len(n.names) < maxNodeNames {
		n.names = append(n.names, s)
	}
	return s
}
