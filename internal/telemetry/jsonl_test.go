package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"testing"
)

// canonicalEvent is what a round trip through the JSONL encoding can
// preserve of an event: the encoder keeps only the arguments its kind names,
// writes flags (error role, alert state) as 0/1, and names unknown path codes
// "idle".
func canonicalEvent(node string, ev Event) NamedEvent {
	out := NamedEvent{Time: ev.Time, Node: node, Kind: ev.Kind, A: ev.A, B: ev.B}
	switch ev.Kind {
	case EvArbWon, EvTxStart, EvTxSuccess, EvArbLost, EvDetect, EvPullStart, EvPullEnd:
		out.B = 0
	case EvError, EvAlert:
		if ev.B != 0 {
			out.B = 1
		}
	case EvFFSpan:
		out.B = ffPathCode(ffPathName(ev.B))
	case EvErrorEnd, EvBusOff, EvRecover:
		out.A, out.B = 0, 0
	}
	return out
}

// decodeViaEncodingJSON is ParseEventJSON without the scanner: the reference
// decoder the scanner must agree with.
func decodeViaEncodingJSON(line []byte) (NamedEvent, error) {
	var rec jsonlRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return NamedEvent{}, err
	}
	return rec.namedEvent()
}

// reorderFields re-encodes a record through encoding/json's map encoding,
// which sorts the keys (and escapes HTML-significant characters): the same
// record with its fields in a different order.
func reorderFields(t *testing.T, line []byte) []byte {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("decode %s: %v", line, err)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzEventJSON checks the JSONL codec two ways. Every kind must survive
// AppendEventJSON → ParseEventJSON, also with surrounding whitespace and with
// its fields reordered (both of which the encoding/json fallback decodes).
// And for arbitrary bytes, whatever the reflection-free scanner accepts must
// decode exactly as encoding/json decodes it, so ParseEventJSON always agrees
// with the plain encoding/json decoder.
func FuzzEventJSON(f *testing.F) {
	for k := EvArbWon; k <= EvAlert; k++ {
		f.Add(uint8(k), int64(1042), int64(0x123), int64(1), "michican", []byte(nil))
	}
	f.Add(uint8(EvFFSpan), int64(7), int64(300), int64(4), "bus", []byte(nil))
	f.Add(uint8(EvError), int64(-5), int64(9), int64(0), `quote"and\backslash`, []byte(nil))
	f.Add(uint8(EvDetect), int64(math.MaxInt64), int64(math.MinInt64), int64(0), "défense", []byte(nil))
	f.Add(uint8(EvTEC), int64(0), int64(8), int64(0), "tab\tname", []byte(nil))
	for _, raw := range []string{
		`{"t":1042,"node":"michican","event":"detect","bit":5}`,
		` {"t":1042,"node":"michican","event":"detect","bit":5}` + "\n",
		`{"bit":5,"event":"detect","node":"michican","t":1042}`,
		`{"t":1,"node":"défense","event":"tec","value":8,"prev":0}`,
		`{"t":1,"node":"é","event":"rec","value":1,"prev":2}`,
		`{"T":1,"NODE":"n","Event":"bus_off"}`,
		`{"t":01,"node":"n","event":"bus_off"}`,
		`{"t":-0,"node":"n","event":"recover"}`,
		`{"t":9223372036854775808,"node":"n","event":"recover"}`,
		`{"t":-9223372036854775808,"node":"n","event":"recover"}`,
		`{"t":1e3,"node":"n","event":"recover"}`,
		`{"t":null,"node":"n","event":"recover"}`,
		`{"t":1,"t":2,"node":"n","event":"recover"}`,
		`{"t":1,"node":"n","event":"arb_won","id":"0x7FF","extra":true}`,
		`{"t":1,"node":"n","event":"ff_span","bits":3,"path":"warp"}`,
		`{"t":1,"node":"n","event":"alert","rule":2,"state":"fire"}`,
		`{"t":1,"node":"n","event":"recover"}}`,
		`{"t":1,}`,
		`{}`,
		`{`,
		``,
	} {
		f.Add(uint8(0), int64(0), int64(0), int64(0), "", []byte(raw))
	}
	f.Fuzz(func(t *testing.T, kind uint8, tm, a, b int64, node string, raw []byte) {
		k := Kind(kind%uint8(EvAlert) + 1)
		if k == EvArbWon || k == EvTxStart || k == EvTxSuccess {
			a &= math.MaxInt64 // CAN IDs are non-negative
		}
		ev := Event{Time: tm, Kind: k, A: a, B: b}
		// The encoder quotes names Go-style; only names whose quoting is
		// also valid JSON for the same string can round-trip.
		var quoted string
		if json.Unmarshal([]byte(strconv.Quote(node)), &quoted) == nil && quoted == node {
			line := AppendEventJSON(nil, node, ev)
			want := canonicalEvent(node, ev)
			for _, variant := range [][]byte{line, append(append([]byte(" \t"), line...), "\r\n"...), reorderFields(t, line)} {
				got, err := ParseEventJSON(variant)
				if err != nil {
					t.Fatalf("ParseEventJSON(%s): %v", variant, err)
				}
				if got != want {
					t.Fatalf("ParseEventJSON(%s) = %+v, want %+v", variant, got, want)
				}
			}
		}

		var scanned jsonlRecord
		if scanRecord(raw, &scanned) {
			var ref jsonlRecord
			if err := json.Unmarshal(raw, &ref); err != nil {
				t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", raw, err)
			}
			if scanned != ref {
				t.Fatalf("scanner decoded %q as %+v, encoding/json as %+v", raw, scanned, ref)
			}
		}
		got, gotErr := ParseEventJSON(raw)
		want, wantErr := decodeViaEncodingJSON(raw)
		if (gotErr != nil) != (wantErr != nil) || got != want {
			t.Fatalf("ParseEventJSON(%q) = %+v, %v; encoding/json gives %+v, %v", raw, got, gotErr, want, wantErr)
		}
	})
}

// benchmarkEvents is one event of every argument shape the stream carries.
var benchmarkEvents = []Event{
	{Time: 1042, Kind: EvTxStart, A: 0x173},
	{Time: 1043, Kind: EvArbWon, A: 0x173},
	{Time: 1050, Kind: EvDetect, A: 5},
	{Time: 1056, Kind: EvPullStart, A: 7},
	{Time: 1063, Kind: EvError, A: 1, B: 1},
	{Time: 1079, Kind: EvTEC, A: 8},
	{Time: 1100, Kind: EvFFSpan, A: 130, B: 3},
	{Time: 1230, Kind: EvTxSuccess, A: 0x173},
}

// BenchmarkAppendEventJSON encodes the stream's event shapes into a reused
// buffer, the way the store sink does, and through writeEventJSON into a
// buffered writer, the way the JSONL exporters do.
func BenchmarkAppendEventJSON(b *testing.B) {
	b.Run("append", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendEventJSON(buf[:0], "michican", benchmarkEvents[i%len(benchmarkEvents)])
		}
	})
	b.Run("write", func(b *testing.B) {
		w := bufio.NewWriter(io.Discard)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := writeEventJSON(w, "michican", benchmarkEvents[i%len(benchmarkEvents)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParseEventJSON decodes the stream's event shapes, the store's
// read path.
func BenchmarkParseEventJSON(b *testing.B) {
	lines := make([][]byte, len(benchmarkEvents))
	for i, ev := range benchmarkEvents {
		lines[i] = AppendEventJSON(nil, "michican", ev)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseEventJSON(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}
