// Command benchmark measures the MichiCAN simulator end to end and layer by
// layer on four workloads (see README.md). Run it through run.sh from the
// repository root, which builds it from this checkout:
//
//	bash benchmark/run.sh --workload fleet-attacked --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh -seed 1                      # a set: every workload, 5 repeats
//	bash benchmark/run.sh -seed 1 -trace 1 -trace-dir out -json set.json
//	bash benchmark/run.sh -compare a.json b.json
//	bash benchmark/run.sh -write-golden -seed 1
//
// With --workload it makes one run and prints, as its last line, one JSON
// object with the keys correct, attempted, failed and metrics (the
// end-to-end metrics, or the per-layer metrics with --trace 1).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errFailed reports a run whose outputs failed a correctness check; its
// result was already printed.
var errFailed = errors.New("correctness checks failed")

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", fmt.Sprintf("make one run of this workload and print its result line: %v", workloadNames()))
		seed      = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = fs.Float64("seconds", 10, "how long one run measures; repetitions start while they fit")
		trace     = fs.Int("trace", 0, "1: report per-layer metrics, writing spans and a CPU profile per workload to -trace-dir")
		traceDir  = fs.String("trace-dir", ".bench_build/trace", "where traced runs write <workload>.spans.json and <workload>.pprof")
		repeats   = fs.Int("repeats", 5, "set mode: runs per workload, each in its own process")
		jsonOut   = fs.String("json", "", "set mode: write the set report to this file")
		compare   = fs.Bool("compare", false, "compare two set reports: -compare A.json B.json")
		writeGold = fs.Bool("write-golden", false, "regenerate benchmark/golden/seed-<seed>.json from this build")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two set reports")
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout)
	case *writeGold:
		return writeGolden(*seed)
	case *workload != "":
		rep, err := runWorkload(runOpts{
			workload: *workload, seed: *seed,
			seconds: time.Duration(*seconds * float64(time.Second)),
			trace:   *trace == 1, traceDir: *traceDir, sc: defaultScale,
		})
		if err != nil {
			return err
		}
		return printResult(rep, *trace == 1, stdout, stderr)
	default:
		return runSet(setOpts{
			seed: *seed, seconds: *seconds, repeats: *repeats, trace: *trace == 1,
			traceDir: *traceDir, jsonOut: *jsonOut,
		}, stdout, stderr)
	}
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detailPrefix marks the line that carries a run's full report for the set
// mode, which re-executes this program once per run.
const detailPrefix = "detail "

// printResult prints a run's metrics by name and unit, the detail line, and
// the result line last.
func printResult(rep *runReport, traced bool, stdout, stderr io.Writer) error {
	for _, f := range rep.Failures {
		fmt.Fprintln(stderr, "FAIL:", f)
	}
	for _, w := range rep.Warnings {
		fmt.Fprintln(stderr, "warning:", w)
	}
	e := rep.Env
	fmt.Fprintf(stdout, "# %s seed=%d reps=%d num_cpu=%d gomaxprocs=%d %s loadavg=%.2f free_disk_gb=%.1f valid=%v %v\n",
		rep.Workload, rep.Seed, rep.Reps, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.LoadAvg1, e.FreeDiskGB, e.Valid, e.Invalid)
	if o := rep.Ops; o.TailP > 0 {
		fmt.Fprintf(stdout, "# op latency n=%d p50 %.4g ms p%d %.4g ms\n", o.N, o.P50Ms, o.TailP, o.TailMs)
	} else {
		fmt.Fprintf(stdout, "# op latency n=%d p50 %.4g ms (too few samples for a tail percentile)\n", o.N, o.P50Ms)
	}
	defs, values := endToEnd, rep.Metrics
	if traced {
		defs, values = perLayerDefs(), rep.Layers
		for _, st := range rep.Spans {
			fmt.Fprintf(stdout, "# span %-24s n=%-5d total %9.4fs self %9.4fs\n", st.Name, st.Count, st.Total.Seconds(), st.Self.Seconds())
		}
	}
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.Name]
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "# %-32s %14.6g %s\n", d.Name, v, d.Unit)
	}
	detail, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s%s\n", detailPrefix, detail)
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !rep.Correct {
		return errFailed
	}
	return nil
}
