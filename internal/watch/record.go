package watch

import (
	"math"
	"slices"
	"strconv"
	"strings"

	"michican/internal/jsonenc"
)

// The engine keeps its transition log as compact records instead of Alert
// values: no reason string and no evidence map is built when a rule fires
// or resolves. A record holds its reason as a template id plus arguments
// and its evidence as up to four (key, value) pairs; Alerts, Snapshot and
// the store payload encoder render them when read. Records are never
// changed once appended.

// reasonID names one reason template.
type reasonID uint8

// The reason templates, one per distinct sentence the rules write.
const (
	reasonDefenderPassive reasonID = iota
	reasonDefenderBusOff
	reasonDefenderActive
	reasonLadderCollapsed
	reasonLadderRecovered
	reasonCampaignEngaged
	reasonCampaignAbandoned
	reasonCampaignEradicated
	reasonCampaignNotEradicated
	reasonDetectionSlow
	reasonDetectionInside
	reasonFramesLeaked
	reasonNothingLeaked
	reasonDrivenBusOff
	reasonNoBusOff

	numReasons
)

// reasonFormats are the templates in fmt syntax: %s is the campaign's CAN
// ID, and %d and %.2f take the reason's arguments in order. Rendering a
// template equals fmt.Sprintf of it (TestReasonsRenderLikeSprintf).
var reasonFormats = [numReasons]string{
	reasonDefenderPassive:       "defender error-passive (TEC=%d REC=%d)",
	reasonDefenderBusOff:        "defender bus-off: fault confinement breached",
	reasonDefenderActive:        "defender error-active again (TEC=%d REC=%d)",
	reasonLadderCollapsed:       "fast-path hit rate %.2f collapsed below %.2f of baseline %.2f",
	reasonLadderRecovered:       "fast-path hit rate %.2f recovered",
	reasonCampaignEngaged:       "spoofing campaign on %s engaged (%d attempts)",
	reasonCampaignAbandoned:     "campaign on %s closed: attacker abandoned",
	reasonCampaignEradicated:    "campaign on %s closed: attacker eradicated",
	reasonCampaignNotEradicated: "campaign on %s closed: full campaign NOT eradicated",
	reasonDetectionSlow:         "detection on %s took %d bits (SLO <= %d)",
	reasonDetectionInside:       "detection on %s back inside the window (%d bits)",
	reasonFramesLeaked:          "%d attacker frame(s) of %s leaked during the campaign",
	reasonNothingLeaked:         "campaign on %s leaked nothing",
	reasonDrivenBusOff:          "attacker on %s driven bus-off after %d attempts",
	reasonNoBusOff:              "full campaign on %s (%d attempts) closed without bus-off",
}

// why is a reason not yet rendered: its template, the %s string and the
// numeric arguments (a %.2f argument held as its IEEE-754 bits).
type why struct {
	id     string
	args   [3]int64
	reason reasonID
}

// because builds a reason; args fill the template's %d and %.2f verbs in
// order (pass floats through floatArg).
func because(r reasonID, id string, args ...int64) why {
	y := why{reason: r, id: id}
	copy(y.args[:], args)
	return y
}

// floatArg carries a %.2f argument in a reason's integer arguments.
func floatArg(f float64) int64 { return int64(math.Float64bits(f)) }

// appendText renders the reason onto dst, escaped as a JSON string body
// when escape is set. The template text and the numbers are ASCII, so
// escaping piece by piece writes what escaping the rendered whole would.
func (y *why) appendText(dst []byte, escape bool) []byte {
	text := func(dst []byte, s string) []byte {
		if escape {
			return jsonenc.Escape(dst, s)
		}
		return append(dst, s...)
	}
	f := reasonFormats[y.reason]
	arg := 0
	for {
		i := strings.IndexByte(f, '%')
		if i < 0 {
			return text(dst, f)
		}
		dst = text(dst, f[:i])
		f = f[i+1:]
		switch {
		case f[0] == 's':
			dst = text(dst, y.id)
			f = f[1:]
		case f[0] == 'd':
			dst = strconv.AppendInt(dst, y.args[arg], 10)
			arg++
			f = f[1:]
		default: // ".2f"
			dst = strconv.AppendFloat(dst, math.Float64frombits(uint64(y.args[arg])), 'f', 2, 64)
			arg++
			f = f[3:]
		}
	}
}

// evKey names one evidence key. The constants are in the names' byte order,
// so evidence added in key order is what encoding/json writes for the
// equivalent map, whose keys it sorts.
type evKey uint8

// The evidence keys, alphabetical.
const (
	keyAttempts evKey = iota
	keyBaselinePct
	keyBusOffAt
	keyDetections
	keyFrames
	keyHitRatePct
	keyLatencyBits
	keyLeaked
	keyLevel
	keyRec
	keyTec

	numKeys
)

var evKeyNames = [numKeys]string{
	keyAttempts:    "attempts",
	keyBaselinePct: "baseline_pct",
	keyBusOffAt:    "bus_off_at",
	keyDetections:  "detections",
	keyFrames:      "frames",
	keyHitRatePct:  "hit_rate_pct",
	keyLatencyBits: "latency_bits",
	keyLeaked:      "leaked",
	keyLevel:       "level",
	keyRec:         "rec",
	keyTec:         "tec",
}

// evidence is a fire transition's witnesses: up to four pairs, keys
// ascending. A resolve carries none.
type evidence struct {
	vals [4]int64
	keys [4]evKey
	n    uint8
}

// evidenceOf starts an evidence set with one pair.
func evidenceOf(k evKey, v int64) evidence {
	return evidence{}.and(k, v)
}

// and appends a pair; k must sort after every key already present.
func (e evidence) and(k evKey, v int64) evidence {
	if e.n > 0 && k <= e.keys[e.n-1] {
		panic("watch: evidence keys out of order")
	}
	e.keys[e.n], e.vals[e.n] = k, v
	e.n++
	return e
}

// get reads one key's value (0 when absent).
func (e *evidence) get(k evKey) int64 {
	for i := range e.n {
		if e.keys[i] == k {
			return e.vals[i]
		}
	}
	return 0
}

// asMap materializes the set as Alert.Evidence (nil when empty).
func (e *evidence) asMap() map[string]int64 {
	if e.n == 0 {
		return nil
	}
	m := make(map[string]int64, e.n)
	for i := range e.n {
		m[evKeyNames[e.keys[i]]] = e.vals[i]
	}
	return m
}

// record is one transition of the engine's log; its position in the log is
// its Seq.
type record struct {
	t int64
	why
	ev      evidence
	rule    Rule
	sev     Severity
	resolve bool
}

// state names the transition as Alert.State does.
func (r *record) state() string {
	if r.resolve {
		return "resolve"
	}
	return "fire"
}

// alert materializes the record as the public Alert.
func (r *record) alert(seq int) Alert {
	return Alert{
		Seq:      int64(seq),
		Rule:     r.rule.String(),
		RuleID:   int(r.rule),
		Severity: r.sev.String(),
		State:    r.state(),
		Time:     r.t,
		Reason:   string(r.appendText(nil, false)),
		Evidence: r.ev.asMap(),
	}
}

// appendJSON writes the record's store payload: the bytes json.Marshal
// writes for r.alert(seq).
func (r *record) appendJSON(dst []byte, seq int) []byte {
	dst = appendHead(dst, int64(seq), r.rule.String(), int64(r.rule), r.sev.String(), r.state(), r.t)
	dst = jsonenc.Key(dst, "reason")
	dst = append(dst, '"')
	dst = r.appendText(dst, true)
	dst = append(dst, '"')
	if r.ev.n > 0 {
		dst = append(jsonenc.Key(dst, "evidence"), '{')
		for i := range r.ev.n {
			dst = jsonenc.Int(dst, evKeyNames[r.ev.keys[i]], r.ev.vals[i])
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// sizeHint estimates the record's payload bytes, to size a log's buffer.
func (r *record) sizeHint() int {
	return 160 + len(reasonFormats[r.reason]) + len(r.id) + 24*int(r.ev.n)
}

// appendHead opens an alert payload and writes every member before the
// reason, in Alert's field order.
func appendHead(dst []byte, seq int64, rule string, ruleID int64, sev, state string, t int64) []byte {
	dst = append(dst, '{')
	dst = jsonenc.Int(dst, "seq", seq)
	dst = jsonenc.Str(dst, "rule", rule)
	dst = jsonenc.Int(dst, "rule_id", ruleID)
	dst = jsonenc.Str(dst, "severity", sev)
	dst = jsonenc.Str(dst, "state", state)
	return jsonenc.Int(dst, "t", t)
}

// appendAlert appends a's canonical JSON payload — the bytes json.Marshal
// writes for it, evidence keys sorted — to dst.
func appendAlert(dst []byte, a *Alert) []byte {
	dst = appendHead(dst, a.Seq, a.Rule, int64(a.RuleID), a.Severity, a.State, a.Time)
	dst = jsonenc.Str(dst, "reason", a.Reason)
	if len(a.Evidence) > 0 {
		keys := make([]string, 0, 8)
		for k := range a.Evidence {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(jsonenc.Key(dst, "evidence"), '{')
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonenc.String(dst, k)
			dst = strconv.AppendInt(append(dst, ':'), a.Evidence[k], 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}
