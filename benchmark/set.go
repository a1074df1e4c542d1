package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envInfo records the conditions a run or set was measured under.
type envInfo struct {
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	LoadAvg1   float64  `json:"loadavg_1m"`
	FreeDiskGB float64  `json:"free_disk_gb"`
	Valid      bool     `json:"valid"`
	Invalid    []string `json:"invalid,omitempty"`
}

// Validity thresholds: a set measured on a busy machine, with a timed
// window too short to time reliably, or short of disk for the stores is
// marked invalid.
const (
	minWindow     = 2 * time.Second
	minFreeDiskGB = 3
)

func readEnv(dir string) envInfo {
	e := envInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) == nil {
		e.FreeDiskGB = float64(st.Bavail) * float64(st.Bsize) / 1e9
	}
	return e
}

// checkEnv marks e invalid for a loaded machine or a short disk.
func checkEnv(e *envInfo) {
	e.Valid = true
	if e.LoadAvg1 > float64(e.NumCPU) {
		e.Valid = false
		e.Invalid = append(e.Invalid, fmt.Sprintf("loadavg %.2f above %d CPUs at start", e.LoadAvg1, e.NumCPU))
	}
	if e.FreeDiskGB < minFreeDiskGB {
		e.Valid = false
		e.Invalid = append(e.Invalid, fmt.Sprintf("free disk %.1f GB under %d GB", e.FreeDiskGB, minFreeDiskGB))
	}
}

// checkWindows marks e invalid when any timed window of the run was short.
func checkWindows(e *envInfo, reps []repResult) {
	for _, r := range reps {
		for _, w := range []time.Duration{r.work, r.steady} {
			if w > 0 && w < minWindow {
				e.Valid = false
				e.Invalid = append(e.Invalid, fmt.Sprintf("timed window %v under %v", w.Round(time.Millisecond), minWindow))
				return
			}
		}
	}
}

// setOpts configures set mode.
type setOpts struct {
	seed     int64
	seconds  float64
	repeats  int
	trace    bool
	traceDir string
	jsonOut  string
}

// workloadSet is one workload's results over a set's repeats.
type workloadSet struct {
	Correct  bool               `json:"correct"`
	Failures []string           `json:"failures,omitempty"`
	Warnings []string           `json:"warnings,omitempty"`
	Metrics  map[string]summary `json:"metrics"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	Invalid  []string           `json:"invalid,omitempty"`
}

// setReport is what set mode writes with -json and -compare reads.
type setReport struct {
	Seed      int64                   `json:"seed"`
	Repeats   int                     `json:"repeats"`
	Seconds   float64                 `json:"seconds"`
	Env       envInfo                 `json:"env"`
	Workloads map[string]*workloadSet `json:"workloads"`
}

// runSet runs every workload -repeats times, each run in its own process so
// peak RSS and the heap stay per run, alternating the workload order between
// repeats; with -trace 1 it adds one traced run per workload. It prints each
// end-to-end metric's median, quartiles and range, and checks that
// fleet-resume reproduced fleet-attacked's stores byte for byte.
func runSet(o setOpts, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames()
	rep := setReport{Seed: o.seed, Repeats: o.repeats, Seconds: o.seconds, Env: readEnv(os.TempDir()), Workloads: map[string]*workloadSet{}}
	checkEnv(&rep.Env)
	fmt.Fprintf(stdout, "set: seed=%d repeats=%d seconds=%g num_cpu=%d gomaxprocs=%d %s loadavg=%.2f free_disk_gb=%.1f\n",
		o.seed, o.repeats, o.seconds, rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.LoadAvg1, rep.Env.FreeDiskGB)

	values := map[string]map[string][]float64{}
	ids := map[string]identity{}
	child := func(name string, trace bool) (*runReport, error) {
		args := []string{"--workload", name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "--trace", "0"}
		if trace {
			args[len(args)-1] = "1"
			args = append(args, "--trace-dir", o.traceDir)
		}
		start := time.Now()
		var out bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		r, err := parseDetail(out.Bytes())
		if err != nil {
			return nil, fmt.Errorf("%s: %v (exit: %v)", name, err, runErr)
		}
		fmt.Fprintf(stdout, "  %-15s traced=%-5v reps=%d %6.1fs correct=%v\n", name, trace, r.Reps, time.Since(start).Seconds(), r.Correct)
		return r, nil
	}
	for i := 0; i < o.repeats; i++ {
		order := append([]string(nil), names...)
		if i%2 == 1 {
			for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
				order[l], order[r] = order[r], order[l]
			}
		}
		for _, name := range order {
			r, err := child(name, false)
			if err != nil {
				return err
			}
			ws := rep.Workloads[name]
			if ws == nil {
				ws = &workloadSet{Correct: true, Metrics: map[string]summary{}}
				rep.Workloads[name] = ws
				values[name] = map[string][]float64{}
			}
			ws.Correct = ws.Correct && r.Correct
			ws.Failures = append(ws.Failures, r.Failures...)
			ws.Warnings = append(ws.Warnings, r.Warnings...)
			ws.Invalid = append(ws.Invalid, r.Env.Invalid...)
			for k, v := range r.Metrics {
				values[name][k] = append(values[name][k], v)
			}
			ids[name] = r.Identity
		}
	}
	if o.trace {
		for _, name := range names {
			r, err := child(name, true)
			if err != nil {
				return err
			}
			ws := rep.Workloads[name]
			ws.Layers = r.Layers
			ws.Correct = ws.Correct && r.Correct
			if med := median(values[name]["wall_s"]); med > 0 {
				// The in-run overhead compares single repetitions; the set
				// has the untraced median to compare against.
				ws.Layers["trace_overhead_pct"] = 100 * (r.TracedWallS/med - 1)
			}
		}
	}
	if a, ok := ids["fleet-attacked"]; ok {
		if b, ok := ids["fleet-resume"]; ok {
			if err := sameRoster(b.Vehicles, a.Vehicles); err != nil {
				ws := rep.Workloads["fleet-resume"]
				ws.Correct = false
				ws.Failures = append(ws.Failures, "crash-resume is not byte-identical to the uninterrupted run: "+err.Error())
			}
		}
	}

	ok := true
	for _, name := range names {
		ws := rep.Workloads[name]
		for k, v := range values[name] {
			ws.Metrics[k] = summarize(v)
		}
		if len(ws.Invalid) > 0 {
			rep.Env.Valid = false
		}
		fmt.Fprintf(stdout, "\n%s  correct=%v\n", name, ws.Correct)
		for _, d := range endToEnd {
			s := ws.Metrics[d.Name]
			fmt.Fprintf(stdout, "  %-16s %-6s %s  spread %.1f%% (bound %.0f%%)\n", d.Name, d.Unit, s, 100*s.spread(), 100*d.Bound)
		}
		if ws.Layers != nil {
			for _, d := range perLayerDefs() {
				fmt.Fprintf(stdout, "  %-32s %12.6g %s\n", d.Name, ws.Layers[d.Name], d.Unit)
			}
		}
		for _, f := range ws.Failures {
			fmt.Fprintln(stdout, "  FAIL:", f)
		}
		ok = ok && ws.Correct
	}
	fmt.Fprintf(stdout, "\nvalid=%v %v\n", rep.Env.Valid, rep.Env.Invalid)
	if o.jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !ok {
		return errFailed
	}
	return nil
}

// parseDetail finds a run's detail line in its output.
func parseDetail(out []byte) (*runReport, error) {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if rest, ok := bytes.CutPrefix(sc.Bytes(), []byte(detailPrefix)); ok {
			var r runReport
			if err := json.Unmarshal(rest, &r); err != nil {
				return nil, err
			}
			return &r, nil
		}
	}
	return nil, fmt.Errorf("no result in the run's output")
}

// verdict compares one metric of two sets against its bound.
func verdict(d metricDef, a, b summary) (string, float64) {
	delta := (b.Median - a.Median) / math.Abs(a.Median)
	worseBy := delta
	allWorse, allBetter := b.Min > a.Max, b.Max < a.Min
	if d.Better == "higher" {
		worseBy = -delta
		allWorse, allBetter = b.Max < a.Min, b.Min > a.Max
	}
	// A gain beyond A's interquartile range counts only when the two ranges
	// are apart: B's runs must not merely shift inside A's noise.
	apart := b.Q3 < a.Q1 || b.Q1 > a.Q3
	switch {
	case max(a.spread(), b.spread()) > d.Bound && !allWorse && !allBetter:
		return "unresolved", delta
	case worseBy > d.Bound:
		return "worse", delta
	case (-worseBy > a.spread() && apart) || allBetter:
		return "better", delta
	default:
		return "within bound", delta
	}
}

// compareReports prints, per workload and end-to-end metric, both medians
// and IQRs, the change, and the verdict.
func compareReports(pathA, pathB string, w io.Writer) error {
	load := func(path string) (*setReport, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r setReport
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %-15s %12s %10s %12s %10s %8s  %s\n", "workload", "metric", "A median", "A IQR", "B median", "B IQR", "delta", "verdict")
	for _, name := range workloadNames() {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			v, delta := verdict(d, sa, sb)
			fmt.Fprintf(w, "%-15s %-15s %12.6g %10.4g %12.6g %10.4g %+7.1f%%  %s\n",
				name, d.Name, sa.Median, sa.Q3-sa.Q1, sb.Median, sb.Q3-sb.Q1, 100*delta, v)
		}
	}
	return nil
}
