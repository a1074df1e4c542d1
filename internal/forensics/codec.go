package forensics

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"michican/internal/can"
	"michican/internal/jsonenc"
	"michican/internal/stats"
)

// EncodeIncident marshals one incident into its canonical single-line JSON
// form, used by the durable store as the incident record payload: the bytes
// json.Marshal writes for it (see appendIncident). The encoding is
// deterministic, which the store's resume protocol relies on (incident
// prefix hashes must match across a resumed and an uninterrupted run).
func EncodeIncident(inc Incident) ([]byte, error) {
	return appendIncident(nil, &inc)
}

// EncodeIncidents marshals a batch in order into one buffer, one sub-slice
// per incident.
func EncodeIncidents(incs []Incident) ([][]byte, error) {
	hint := 0
	for i := range incs {
		inc := &incs[i]
		hint += 400 + len(inc.Attacker) + len(inc.Defender) + 48*len(inc.TEC)
		for _, c := range inc.Causality {
			hint += 32 + len(c.Node) + len(c.Step)
		}
	}
	return jsonenc.Records(len(incs), hint, func(dst []byte, i int) ([]byte, error) {
		return appendIncident(dst, &incs[i])
	})
}

// appendIncident appends inc's canonical JSON payload to dst: the bytes
// json.Marshal writes for it, members in field order, omitempty fields left
// out when empty. A NaN or infinite detection-bit statistic has no JSON
// form and fails with the error json.Marshal returns for it.
func appendIncident(dst []byte, inc *Incident) ([]byte, error) {
	dst = append(dst, '{')
	dst = jsonenc.Str(dst, "id", inc.IDHex)
	dst = jsonenc.Int(dst, "start", inc.Start)
	dst = jsonenc.Int(dst, "end", inc.End)
	dst = jsonenc.Int(dst, "attempts", int64(inc.Attempts))
	if inc.Attacker != "" {
		dst = jsonenc.Str(dst, "attacker", inc.Attacker)
	}
	if inc.Defender != "" {
		dst = jsonenc.Str(dst, "defender", inc.Defender)
	}
	dst = jsonenc.Int(dst, "detections", int64(inc.Detections))
	dst = jsonenc.Int(dst, "first_detect_at", inc.FirstDetectAt)
	dst, err := appendSummary(jsonenc.Key(dst, "detection_bits"), &inc.DetectionBits)
	if err != nil {
		return nil, err
	}
	dst = jsonenc.Int(dst, "counterattacks", int64(inc.Counterattacks))
	dst = jsonenc.Int(dst, "pull_bits_total", inc.PullBitsTotal)
	dst = jsonenc.Int(dst, "frames_leaked", int64(inc.FramesLeaked))
	if len(inc.TEC) > 0 {
		dst = append(jsonenc.Key(dst, "tec"), '[')
		for i, s := range inc.TEC {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '{')
			dst = jsonenc.Int(dst, "t", s.At)
			dst = jsonenc.Int(dst, "value", s.Value)
			dst = jsonenc.Int(dst, "prev", s.Prev)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = jsonenc.Int(dst, "bus_off_at", inc.BusOffAt)
	dst = jsonenc.Int(dst, "recovered_at", inc.RecoveredAt)
	dst = jsonenc.Bool(dst, "eradicated", inc.Eradicated)
	if len(inc.Causality) > 0 {
		dst = append(jsonenc.Key(dst, "causality"), '[')
		for i, c := range inc.Causality {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '{')
			dst = jsonenc.Int(dst, "t", c.At)
			dst = jsonenc.Str(dst, "node", c.Node)
			dst = jsonenc.Str(dst, "step", c.Step)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendSummary appends a stats.Summary object; it has no JSON tags, so its
// members carry the Go field names.
func appendSummary(dst []byte, s *stats.Summary) ([]byte, error) {
	dst = append(dst, '{')
	dst = jsonenc.Int(dst, "N", int64(s.N))
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"Mean", s.Mean}, {"StdDev", s.StdDev}, {"Min", s.Min}, {"Max", s.Max}} {
		var err error
		if dst, err = jsonenc.Float(jsonenc.Key(dst, f.name), f.v); err != nil {
			return nil, err
		}
	}
	return append(dst, '}'), nil
}

// DecodeIncident rehydrates a stored incident payload. The binary ID field
// carries `json:"-"` (IDHex is the serialized form), so it is re-parsed here;
// everything else round-trips through the struct tags.
func DecodeIncident(payload []byte) (Incident, error) {
	var inc Incident
	if err := json.Unmarshal(payload, &inc); err != nil {
		return Incident{}, err
	}
	id, err := parseHexID(inc.IDHex)
	if err != nil {
		return Incident{}, fmt.Errorf("incident %q: %w", inc.IDHex, err)
	}
	inc.ID = id
	return inc, nil
}

// parseHexID parses the 0xNNN form EncodeIncident writes into IDHex.
func parseHexID(s string) (can.ID, error) {
	v, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 32)
	if err != nil {
		return 0, fmt.Errorf("bad incident id: %w", err)
	}
	return can.ID(v), nil
}
