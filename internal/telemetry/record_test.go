package telemetry

import (
	"math"
	"strings"
	"testing"
)

// FuzzEventRecord holds the compact record codec to the JSONL view. For any
// event, ParseEventRecord(AppendEventRecord(…)) must read back what
// ParseEventJSON(AppendEventJSON(…)) does wherever the JSON view can carry
// the event, and canonicalEvent everywhere (the record also carries names
// the Go-quoted JSON cannot, and CAN IDs below zero). Every proper prefix of
// a record, a record with a trailing byte, a record of an unknown kind and
// arbitrary bytes must return an error rather than panic. (FuzzEventBlock
// holds the store's JSONL-line path, BlockEncoder.AppendJSON, to
// ParseEventJSON.)
func FuzzEventRecord(f *testing.F) {
	for k := EvArbWon; k <= EvAlert; k++ {
		f.Add(uint8(k), int64(1042), int64(0x123), int64(1), "michican", []byte(nil))
	}
	f.Add(uint8(EvFFSpan), int64(7), int64(300), int64(9), "bus", []byte(nil))
	f.Add(uint8(EvTEC), int64(math.MinInt64), int64(math.MaxInt64), int64(math.MinInt64), `quote"and\backslash`, []byte(nil))
	f.Add(uint8(EvAlert), int64(math.MaxInt64), int64(math.MinInt64), int64(math.MaxInt64), "défense", []byte(nil))
	f.Add(uint8(EvArbWon), int64(-1), int64(-1), int64(0), "tab\tname\xff", []byte(nil))
	f.Add(uint8(EvDetect), int64(5), int64(3), int64(0), strings.Repeat("long-node-name/", 20), []byte(nil))
	f.Add(uint8(0), int64(1), int64(0), int64(0), "n", []byte(nil))
	f.Add(uint8(EvAlert+1), int64(1), int64(0), int64(0), "n", []byte(nil))
	for _, raw := range []string{
		"",
		"\x02",
		"\x02\x03\x00\x00\x01n",
		"\x02\x03\x00\x00\x01nn",
		"\x02\x03\x00\x00\x02n",
		"\x02\x10\x00\x00\x00",
		"\x02\x03\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01",
		"\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff",
		`{"t":1042,"node":"michican","event":"detect","bit":5}`,
		` {"event":"tx_start", "id":"0x7b", "t":-3, "node":"caf\u00e9"}`,
		`{"t":1,"node":"n","event":"no_such_kind"}`,
	} {
		f.Add(uint8(0), int64(0), int64(0), int64(0), "", []byte(raw))
	}
	var names NodeNames
	f.Fuzz(func(t *testing.T, kind uint8, tm, a, b int64, node string, raw []byte) {
		ev := Event{Time: tm, Kind: Kind(kind), A: a, B: b}
		rec := AppendEventRecord(nil, node, ev)
		got, err := ParseEventRecord(rec, &names)
		if ev.Kind < EvArbWon || ev.Kind > EvAlert {
			if err == nil {
				t.Fatalf("record of unknown kind %d decoded as %+v", kind, got)
			}
		} else {
			if err != nil {
				t.Fatalf("ParseEventRecord(%x): %v", rec, err)
			}
			if want := canonicalEvent(node, ev); got != want {
				t.Fatalf("ParseEventRecord(%x) = %+v, want %+v", rec, got, want)
			}
			line := AppendEventJSON(nil, node, ev)
			if want, err := ParseEventJSON(line); err == nil {
				if got != want {
					t.Fatalf("record reads back %+v, the JSON view %+v", got, want)
				}
			}
			if _, err := ParseEventRecord(append(rec, 0), &names); err == nil {
				t.Fatalf("record with a trailing byte decoded: %x", rec)
			}
		}
		for i := range rec {
			if got, err := ParseEventRecord(rec[:i], &names); err == nil {
				t.Fatalf("truncated record %x decoded as %+v", rec[:i], got)
			}
		}
		if got, err := ParseEventRecord(raw, &names); err == nil {
			if got.Kind < EvArbWon || got.Kind > EvAlert {
				t.Fatalf("ParseEventRecord(%x) accepted kind %d", raw, got.Kind)
			}
		}
	})
}

// TestParseEventRecordAllocatesNothing pins the store's read path: with the
// node names interned, decoding a record allocates nothing.
func TestParseEventRecordAllocatesNothing(t *testing.T) {
	recs := make([][]byte, len(benchmarkEvents))
	for i, ev := range benchmarkEvents {
		recs[i] = AppendEventRecord(nil, "michican", ev)
	}
	var names NodeNames
	i := 0
	if got := testing.AllocsPerRun(1000, func() {
		if _, err := ParseEventRecord(recs[i%len(recs)], &names); err != nil {
			t.Fatal(err)
		}
		i++
	}); got != 0 {
		t.Fatalf("ParseEventRecord allocates %v times per record, want 0", got)
	}
}

// BenchmarkParseEventRecord decodes the stream's event shapes, the store's
// read path; compare BenchmarkParseEventJSON.
func BenchmarkParseEventRecord(b *testing.B) {
	recs := make([][]byte, len(benchmarkEvents))
	for i, ev := range benchmarkEvents {
		recs[i] = AppendEventRecord(nil, "michican", ev)
	}
	var names NodeNames
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseEventRecord(recs[i%len(recs)], &names); err != nil {
			b.Fatal(err)
		}
	}
}
