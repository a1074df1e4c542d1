package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer. Parent names the enclosing span of the same run ("" for a root).
type span struct {
	RunID   string `json:"run_id"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written once the run ends. A nil
// tracer records nothing, so untraced repetitions pay one nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span that started at start and ends now. Safe for
// concurrent use (store finalization runs on the fleet's worker goroutines).
func (t *tracer) add(runID, name, parent string, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		RunID: runID, Name: name, Parent: parent,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
}

// spanTime is a span name's total and self time, summed over a run's spans.
type spanTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes sums each span name's duration and its self time: the span's
// interval minus the part of it that its child spans cover (children may
// overlap when they ran on several goroutines).
func selfTimes(spans []span) []spanTime {
	byName := map[string]*spanTime{}
	for i, s := range spans {
		var kids [][2]int64
		for j, c := range spans {
			if j != i && c.RunID == s.RunID && c.Parent == s.Name && c.StartNs >= s.StartNs && c.StartNs <= s.EndNs {
				kids = append(kids, [2]int64{c.StartNs, min(c.EndNs, s.EndNs)})
			}
		}
		st := byName[s.Name]
		if st == nil {
			st = &spanTime{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.EndNs - s.StartNs
		st.Count++
		st.Total += time.Duration(d)
		st.Self += time.Duration(d - covered(kids))
	}
	out := make([]spanTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, r := range iv {
		switch {
		case !open:
			curS, curE, open = r[0], r[1], true
		case r[0] > curE:
			total += curE - curS
			curS, curE = r[0], r[1]
		case r[1] > curE:
			curE = r[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// Layer names for CPU samples with no michican/internal frame on the stack.
const (
	layerGC    = "runtime.gc"
	layerOther = "runtime.other"
)

// cpuByLayer reads a CPU profile (gzipped pprof protobuf, as runtime/pprof
// writes it) and sums sampled CPU nanoseconds per layer. Each sample goes to
// the innermost michican/internal/<module> frame on its stack, so standard
// library callees count for the module that called them; samples with no
// such frame go to runtime.gc (garbage collector work) or runtime.other.
func cpuByLayer(profile []byte, known map[string]bool) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	valueIdx := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			valueIdx = i
		}
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			continue
		}
		out[p.layerOf(s.locations, known)] += s.values[valueIdx]
	}
	return out, nil
}

const internalPrefix = "michican/internal/"

func (p *profile) layerOf(locs []uint64, known map[string]bool) string {
	gc := false
	for _, id := range locs {
		for _, fn := range p.locations[id] {
			name := p.functions[fn]
			if rest, ok := strings.CutPrefix(name, internalPrefix); ok {
				mod := rest
				if i := strings.IndexAny(rest, "./"); i >= 0 {
					mod = rest[:i]
				}
				if known[mod] {
					return mod
				}
				return layerOther
			}
			if strings.HasPrefix(name, "runtime.gc") || strings.HasPrefix(name, "runtime.bgsweep") ||
				strings.HasPrefix(name, "runtime.bgscavenge") {
				gc = true
			}
		}
	}
	if gc {
		return layerGC
	}
	return layerOther
}

// profile holds the parts of a pprof protobuf the layer attribution needs.
type profile struct {
	sampleTypes []string
	samples     []profSample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]string   // function id -> name
}

type profSample struct {
	locations []uint64 // leaf first
	values    []int64
}

// decodeProfile parses the pprof protobuf (profile.proto) fields used here:
// Profile.sample_type(1), sample(2), location(4), function(5),
// string_table(6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	var typeIdx []uint64
	funcName := map[uint64]uint64{}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 1: // ValueType{type=1, unit=2}
			return eachField(data, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // Sample{location_id=1, value=2}
			var s profSample
			err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locations, w, v, d)
				case 2:
					var u []uint64
					if err := appendUints(&u, w, v, d); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location{id=1, line=4{function_id=1}}
			var id uint64
			var fns []uint64
			err := eachField(data, func(n, _ int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(d, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // Function{id=1, name=2}
			var id, name uint64
			err := eachField(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for id, n := range funcName {
		p.functions[id] = str(n)
	}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t))
	}
	return p, nil
}

// appendUints appends a repeated scalar field, packed (wire type 2) or not.
func appendUints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks a protobuf message, calling fn with each field's number,
// wire type, and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
