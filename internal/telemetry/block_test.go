package telemetry

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"
)

// blockEvent is one event of a block under test, with its node's name.
type blockEvent struct {
	node string
	ev   Event
}

// decodeBlock reads every event of block p.
func decodeBlock(d *BlockDecoder, p []byte) (BlockHeader, []NamedEvent, error) {
	h, err := d.Reset(p)
	if err != nil {
		return h, nil, err
	}
	var out []NamedEvent
	for {
		ev, err := d.Next()
		if err == io.EOF {
			return h, out, nil
		}
		if err != nil {
			return h, out, err
		}
		out = append(out, ev)
	}
}

// specBlock writes evs as the layout documented in block.go, independently
// of BlockEncoder: the reference the encoder is held to. The mutations make
// the malformed variants: the header's count moved by dCount, and the first
// event's kind and node index replaced when non-negative (the arguments
// stored stay those of its real kind).
func specBlock(evs []blockEvent, dCount int, kind0, node0 int) []byte {
	var nodes []string
	index := map[string]int{}
	minT, maxT := evs[0].ev.Time, evs[0].ev.Time
	for _, e := range evs {
		if _, ok := index[e.node]; !ok {
			index[e.node] = len(nodes)
			nodes = append(nodes, e.node)
		}
		minT, maxT = min(minT, e.ev.Time), max(maxT, e.ev.Time)
	}
	p := binary.AppendUvarint(nil, uint64(len(evs)+dCount))
	p = binary.AppendVarint(p, minT)
	p = binary.AppendUvarint(p, uint64(maxT-minT))
	p = binary.AppendUvarint(p, uint64(len(nodes)))
	for _, s := range nodes {
		p = binary.AppendUvarint(p, uint64(len(s)))
		p = append(p, s...)
	}
	prev := int64(0)
	for i, e := range evs {
		kind, node := int(e.ev.Kind), index[e.node]
		if i == 0 && kind0 >= 0 {
			kind = kind0
		}
		if i == 0 && node0 >= 0 {
			node = node0
		}
		a, b := viewArgs(e.ev.Kind, e.ev.A, e.ev.B)
		p = binary.AppendVarint(p, e.ev.Time-prev)
		p = binary.AppendUvarint(p, uint64(node)<<4|uint64(kind))
		switch e.ev.Kind {
		case EvArbWon, EvTxStart, EvTxSuccess, EvArbLost, EvDetect, EvPullStart, EvPullEnd:
			p = binary.AppendVarint(p, a)
		case EvError, EvAlert, EvTEC, EvREC, EvFFSpan:
			p = binary.AppendVarint(p, a)
			p = binary.AppendVarint(p, b)
		}
		prev = e.ev.Time
	}
	return p
}

// scriptEvents turns fuzz bytes into an event sequence: per event a kind
// byte, a node byte (indexing names), then varint time step, A and B. Kinds
// wrap into the valid range; the sequence ends where the script does.
func scriptEvents(script []byte, names []string) []blockEvent {
	var evs []blockEvent
	t := int64(0)
	for len(script) >= 2 {
		kind := Kind(script[0]%uint8(EvAlert) + 1)
		node := names[int(script[1])%len(names)]
		script = script[2:]
		var vals [3]int64
		for i := range vals {
			v, n := binary.Varint(script)
			if n <= 0 {
				return evs
			}
			vals[i], script = v, script[n:]
		}
		t += vals[0]
		evs = append(evs, blockEvent{node, Event{Time: t, Kind: kind, A: vals[1], B: vals[2]}})
	}
	return evs
}

// FuzzEventBlock holds the block codec to the format-3 record codec. A
// scripted event sequence encodes to exactly the documented layout, and
// each decoded event equals ParseEventRecord(AppendEventRecord(…)) of the
// event. Every proper prefix, a trailing byte, a count off by one, a node
// index past the table and an unknown kind are rejected; arbitrary bytes
// decode without panicking, and whatever decodes re-encodes to the same
// events, A and B projected. AppendJSON adds what ParseEventJSON reads from
// a line and fails exactly where it does.
func FuzzEventBlock(f *testing.F) {
	script := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	v := func(x int64) []byte { return binary.AppendVarint(nil, x) }
	f.Add(script([]byte{1, 0}, v(1042), v(0x173), v(0), []byte{2, 0}, v(1), v(0x173), v(0), []byte{8, 1}, v(12), v(1), v(1)), "restbus,michican", []byte(nil))
	f.Add(script([]byte{9, 0}, v(math.MaxInt64), v(math.MinInt64), v(math.MaxInt64), []byte{9, 1}, v(math.MinInt64), v(-1), v(3)), `a,quote"and\backslash,défense`, []byte(nil))
	f.Add(script([]byte{4, 2}, v(-50), v(0), v(0), []byte{4, 0}, v(100), v(0), v(0), []byte{4, 2}, v(-7), v(5), v(0)), "n,m,"+strings.Repeat("long/", 40), []byte(nil))
	for _, raw := range []string{
		"",
		"\x00",
		"\x01\x00\x00\x01\x01n\x00\x02\x00\x00\x00",
		"\x01\x00\x00\x01\x01n\x00\x02\x00\x00\x00\x00",
		"\x01\x00\x00\x01\x01n\x00\x02\x01\x00\x00",
		"\x01\x00\x00\x01\x01n\x00\x7f\x00\x00\x00",
		"\x01\x00\x02\x01\x01n\x00\x02\x00\x00\x00",
		"\x02\x00\x00\x01\x01n\x00\x02\x00\x00\x00\x00\x02\x00\x00\x00",
		`{"t":1042,"node":"michican","event":"detect","bit":5}`,
		`{"t":1,"node":"n","event":"no_such_kind"}`,
	} {
		f.Add([]byte(nil), "n", []byte(raw))
	}
	var enc BlockEncoder
	var dec BlockDecoder
	var names NodeNames
	f.Fuzz(func(t *testing.T, script []byte, nameList string, raw []byte) {
		evs := scriptEvents(script, strings.Split(nameList, ","))
		if len(evs) > 0 {
			// Encode twice through one encoder: Reset must leave nothing behind.
			var block []byte
			for round := 0; round < 2; round++ {
				enc.Reset()
				for _, e := range evs {
					enc.Append(e.node, e.ev)
				}
				block = enc.AppendBlock(nil)
			}
			if want := specBlock(evs, 0, -1, -1); !bytes.Equal(block, want) {
				t.Fatalf("AppendBlock = %x, the documented layout %x", block, want)
			}
			h, got, err := decodeBlock(&dec, block)
			if err != nil {
				t.Fatalf("decoding %x: %v", block, err)
			}
			if hh, err := ParseBlockHeader(block); err != nil || hh != h || h != enc.Header() {
				t.Fatalf("headers disagree: ParseBlockHeader %+v (%v), Reset %+v, encoder %+v", hh, err, h, enc.Header())
			}
			if len(got) != len(evs) {
				t.Fatalf("decoded %d events, encoded %d", len(got), len(evs))
			}
			for i, e := range evs {
				want, err := ParseEventRecord(AppendEventRecord(nil, e.node, e.ev), &names)
				if err != nil || got[i] != want {
					t.Fatalf("event %d decodes as %+v, its format-3 record as %+v (%v)", i, got[i], want, err)
				}
			}
			for i := range block {
				if _, got, err := decodeBlock(&dec, block[:i]); err == nil {
					t.Fatalf("block prefix %x decoded as %+v", block[:i], got)
				}
			}
			bad := map[string][]byte{
				"trailing byte":      append(block[:len(block):len(block)], 0),
				"count one too many": specBlock(evs, 1, -1, -1),
				"node past table":    specBlock(evs, 0, -1, len(strings.Split(nameList, ","))),
				"kind zero":          specBlock(evs, 0, 0, -1),
				"kind past EvAlert":  specBlock(evs, 0, int(EvAlert)+1, -1),
			}
			if len(evs) > 1 {
				bad["count one too few"] = specBlock(evs, -1, -1, -1)
			}
			for name, p := range bad {
				if _, got, err := decodeBlock(&dec, p); err == nil {
					t.Fatalf("%s: %x decoded as %+v", name, p, got)
				}
			}
		}

		if h, got, err := decodeBlock(&dec, raw); err == nil {
			enc.Reset()
			for _, ev := range got {
				if ev.Kind < EvArbWon || ev.Kind > EvAlert {
					t.Fatalf("block %x decoded an event of kind %d", raw, ev.Kind)
				}
				enc.Append(ev.Node, Event{Time: ev.Time, Kind: ev.Kind, A: ev.A, B: ev.B})
			}
			if enc.Header() != h {
				t.Fatalf("block %x: header %+v, its events span %+v", raw, h, enc.Header())
			}
			_, again, err := decodeBlock(&dec, enc.AppendBlock(nil))
			if err != nil || len(again) != len(got) {
				t.Fatalf("block %x re-encodes to %d events (%v), want %d", raw, len(again), err, len(got))
			}
			for i, ev := range got {
				// The decoder, like ParseEventRecord, reads A and B as stored;
				// the encoder projects them.
				ev.A, ev.B = viewArgs(ev.Kind, ev.A, ev.B)
				if again[i] != ev {
					t.Fatalf("block %x: event %d re-encodes as %+v, want %+v", raw, i, again[i], ev)
				}
			}
		}

		want, wantErr := ParseEventJSON(raw)
		enc.Reset()
		err := enc.AppendJSON(raw)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendJSON(%q) err = %v, ParseEventJSON err = %v", raw, err, wantErr)
		}
		if err == nil {
			_, got, err := decodeBlock(&dec, enc.AppendBlock(nil))
			if err != nil || len(got) != 1 || got[0] != want {
				t.Fatalf("line %q adds a block reading %+v, %v; ParseEventJSON reads %+v", raw, got, err, want)
			}
		}
	})
}

// BenchmarkEventBlock encodes and decodes 256-event blocks of the stream's
// event shapes, per event.
func BenchmarkEventBlock(b *testing.B) {
	const n = 256
	nodes := []string{"michican", "restbus", "attacker"}
	event := func(i int) Event {
		ev := benchmarkEvents[i%len(benchmarkEvents)]
		ev.Time += int64(i) * 200
		return ev
	}
	b.Run("encode", func(b *testing.B) {
		var enc BlockEncoder
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc.Append(nodes[i%len(nodes)], event(i))
			if enc.Len() == n {
				buf = enc.AppendBlock(buf[:0])
				enc.Reset()
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		var enc BlockEncoder
		for i := 0; i < n; i++ {
			enc.Append(nodes[i%len(nodes)], event(i))
		}
		block := enc.AppendBlock(nil)
		var dec BlockDecoder
		b.ReportAllocs()
		for i := 0; i < b.N; i += n {
			if _, err := dec.Reset(block); err != nil {
				b.Fatal(err)
			}
			for {
				if _, err := dec.Next(); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestEventBlockAllocatesNothing pins the store's two hot block paths: once
// the buffers have grown, appending events, encoding and resetting blocks,
// and decoding a block allocate nothing.
func TestEventBlockAllocatesNothing(t *testing.T) {
	nodes := []string{"michican", "restbus"}
	var enc BlockEncoder
	var buf []byte
	fill := func() {
		enc.Reset()
		for i, ev := range benchmarkEvents {
			enc.Append(nodes[i%len(nodes)], ev)
		}
		buf = enc.AppendBlock(buf[:0])
	}
	fill()
	if got := testing.AllocsPerRun(1000, fill); got != 0 {
		t.Fatalf("encoding a block allocates %v times, want 0", got)
	}
	line := AppendEventJSON(nil, "restbus", benchmarkEvents[2])
	if got := testing.AllocsPerRun(1000, func() {
		enc.Reset()
		if err := enc.AppendJSON(line); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("AppendJSON allocates %v times, want 0", got)
	}
	fill()
	var dec BlockDecoder
	read := func() {
		if _, err := dec.Reset(buf); err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := dec.Next(); err == io.EOF {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	read()
	if got := testing.AllocsPerRun(1000, read); got != 0 {
		t.Fatalf("decoding a block allocates %v times, want 0", got)
	}
}
