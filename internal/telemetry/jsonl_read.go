package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unsafe"
)

// NamedEvent is a decoded JSONL record: an Event with the node name resolved,
// since a reader has no Hub to map IDs through.
type NamedEvent struct {
	Time int64
	Node string
	Kind Kind
	A, B int64
}

// kindByName is the inverse of Kind.String for the JSONL reader.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind)
	for k := EvArbWon; k <= EvAlert; k++ {
		m[k.String()] = k
	}
	return m
}()

// errorKindCode is the inverse of ErrorKindName.
func errorKindCode(name string) int64 {
	for i, n := range errorKindNames {
		if i > 0 && n == name {
			return int64(i)
		}
	}
	var code int64
	fmt.Sscanf(name, "kind%d", &code)
	return code
}

// ffPathCode is the inverse of ffPathName.
func ffPathCode(name string) int64 {
	for i, n := range ffPathNames {
		if n == name {
			return int64(i)
		}
	}
	return 0
}

// jsonlRecord is the union of every kind-specific field AppendEventJSON emits.
type jsonlRecord struct {
	T         int64  `json:"t"`
	Node      string `json:"node"`
	Event     string `json:"event"`
	ID        string `json:"id"`
	AtWireBit int64  `json:"at_wire_bit"`
	Bit       int64  `json:"bit"`
	Bits      int64  `json:"bits"`
	Kind      string `json:"kind"`
	Role      string `json:"role"`
	Value     int64  `json:"value"`
	Prev      int64  `json:"prev"`
	Path      string `json:"path"`
	Rule      int64  `json:"rule"`
	State     string `json:"state"`
}

// ParseEventJSON decodes one JSONL record previously produced by
// AppendEventJSON (one line, without or with surrounding whitespace) back
// into a named event. Exported so the durable store's replay path decodes
// segment payloads through the same inverse WriteJSONL readers use.
//
// Records as AppendEventJSON writes them take a reflection-free scanner;
// anything it does not accept (whitespace, escapes, non-ASCII, unknown or
// differently-cased keys, null, malformed input) is decoded by
// encoding/json, so the result is always what encoding/json would decode.
func ParseEventJSON(line []byte) (NamedEvent, error) {
	ev, err := parseEventJSON(line)
	ev.Node = strings.Clone(ev.Node) // parseEventJSON's node may share line's bytes
	return ev, err
}

// parseEventJSON is ParseEventJSON without the final copy: for a record the
// scanner accepts, the node name shares line's bytes and is valid only while
// line is unchanged.
func parseEventJSON(line []byte) (NamedEvent, error) {
	var rec jsonlRecord
	if !scanRecord(line, &rec) {
		var slow jsonlRecord // separate, so only the fallback heap-allocates a record
		if err := json.Unmarshal(line, &slow); err != nil {
			return NamedEvent{}, err
		}
		rec = slow
	}
	return rec.namedEvent()
}

// namedEvent maps a decoded record's kind-specific fields back onto A and B.
func (rec *jsonlRecord) namedEvent() (NamedEvent, error) {
	kind, ok := kindByName[rec.Event]
	if !ok {
		return NamedEvent{}, fmt.Errorf("unknown event %q", rec.Event)
	}
	ev := NamedEvent{Time: rec.T, Node: rec.Node, Kind: kind}
	switch kind {
	case EvArbWon, EvTxStart, EvTxSuccess:
		id, err := strconv.ParseInt(strings.TrimPrefix(rec.ID, "0x"), 16, 64)
		if err != nil {
			return NamedEvent{}, fmt.Errorf("bad id %q", rec.ID)
		}
		ev.A = id
	case EvArbLost:
		ev.A = rec.AtWireBit
	case EvDetect:
		ev.A = rec.Bit
	case EvPullStart, EvPullEnd:
		ev.A = rec.Bits
	case EvError:
		ev.A = errorKindCode(rec.Kind)
		if rec.Role == "tx" {
			ev.B = 1
		}
	case EvTEC, EvREC:
		ev.A, ev.B = rec.Value, rec.Prev
	case EvFFSpan:
		ev.A = rec.Bits
		ev.B = ffPathCode(rec.Path)
	case EvAlert:
		ev.A = rec.Rule
		if rec.State == "fire" {
			ev.B = 1
		}
	}
	return ev, nil
}

// scanRecord decodes the flat grammar AppendEventJSON writes — one object of
// "key":value members with no whitespace, integer values without fraction or
// exponent, and string values of printable ASCII without escapes — into rec.
// It reports false on anything else, leaving rec partly filled; the caller
// then decodes with encoding/json. Whatever it accepts, encoding/json
// decodes to the same record (FuzzEventJSON checks this).
func scanRecord(b []byte, rec *jsonlRecord) bool {
	if len(b) < 2 || b[0] != '{' || b[len(b)-1] != '}' {
		return false
	}
	i := 1
	if b[i] == '}' {
		return i == len(b)-1
	}
	for {
		key, j, ok := scanString(b, i)
		if !ok || j >= len(b) || b[j] != ':' {
			return false
		}
		i = j + 1
		var num *int64
		var str *string
		var names []string // the names the encoder writes for this key
		switch string(key) {
		case "t":
			num = &rec.T
		case "node":
			str = &rec.Node
		case "event":
			str, names = &rec.Event, kindNames
		case "id":
			str = &rec.ID
		case "at_wire_bit":
			num = &rec.AtWireBit
		case "bit":
			num = &rec.Bit
		case "bits":
			num = &rec.Bits
		case "kind":
			str, names = &rec.Kind, errorKindNames[1:]
		case "role":
			str, names = &rec.Role, roleNames
		case "value":
			num = &rec.Value
		case "prev":
			num = &rec.Prev
		case "path":
			str, names = &rec.Path, ffPathNames[:]
		case "rule":
			num = &rec.Rule
		case "state":
			str, names = &rec.State, alertStateNames
		default:
			return false
		}
		if num != nil {
			*num, i, ok = scanInt(b, i)
		} else {
			var v []byte
			v, i, ok = scanString(b, i)
			*str = internString(v, names)
		}
		if !ok || i >= len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i++
		case '}':
			return i == len(b)-1
		default:
			return false
		}
	}
}

// scanString reads a quoted string of printable ASCII without escapes at
// b[i], returning its contents and the index past the closing quote.
func scanString(b []byte, i int) ([]byte, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < ' ' || c > '~' || c == '\\':
			return nil, j, false
		}
	}
	return nil, len(b), false
}

// scanInt reads a JSON integer (-?(0|[1-9][0-9]*)) that fits an int64 at b[i]
// and returns it with the index past its last digit.
func scanInt(b []byte, i int) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if u > (1<<63)/10 {
			return 0, i, false
		}
		u = u*10 + uint64(b[i]-'0')
	}
	switch {
	case i == start, b[start] == '0' && i > start+1:
		return 0, i, false
	case neg && u > 1<<63, !neg && u > 1<<63-1:
		return 0, i, false
	}
	if neg {
		return -int64(u), i, true
	}
	return int64(u), i, true
}

// Value vocabularies of the string fields, for internString.
var (
	kindNames = func() (out []string) {
		for k := EvArbWon; k <= EvAlert; k++ {
			out = append(out, k.String())
		}
		return out
	}()
	roleNames       = []string{"tx", "rx"}
	alertStateNames = []string{"fire", "resolve"}
)

// internString returns b as a string: the matching constant when b is one of
// names, else a string sharing b's bytes, valid only while b is unchanged.
// Scanning a record therefore allocates nothing; ParseEventJSON copies the
// one string it returns.
func internString(b []byte, names []string) string {
	for _, n := range names {
		if n == string(b) {
			return n
		}
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// ReadJSONL parses a stream previously produced by WriteJSONL (the
// canonical-order export of a retained log) back into named events,
// preserving stream order.
func ReadJSONL(r io.Reader) ([]NamedEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []NamedEvent
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		ev, err := ParseEventJSON([]byte(text))
		if err != nil {
			return nil, fmt.Errorf("events line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
