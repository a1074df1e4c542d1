package obs_test

import (
	"bytes"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"michican/internal/experiment"
	"michican/internal/fleet"
	"michican/internal/obs"
	"michican/internal/store"
)

// metricsDocElsewhere lists the series METRICS.md documents that no
// per-vehicle stack registers, each with the surface that writes it.
var metricsDocElsewhere = map[string]string{
	"michican_sim_bits_per_second":             "gauge michican-bench -metrics sets after a run",
	"michican_fleet_queries_total":             "text line of obs.ServeFleet's /fleet/metrics",
	"michican_fleet_plan_cache_hits_total":     "text line of michican-fleet's /fleet/metrics",
	"michican_fleet_plan_cache_misses_total":   "text line of michican-fleet's /fleet/metrics",
	"michican_fleet_plan_cache_plans":          "text line of michican-fleet's /fleet/metrics",
	"michican_fleet_plan_cache_resident_bytes": "text line of michican-fleet's /fleet/metrics",
}

var (
	backticked = regexp.MustCompile("`([^`]+)`")
	braceList  = regexp.MustCompile(`\{([a-z0-9_]+(?:,[a-z0-9_]+)+)\}`)
	labelSet   = regexp.MustCompile(`\{[a-z]+\}`)
)

// documentedSeries reads every michican_* series name out of METRICS.md,
// expanding the `name_{a,b}` lists and the `name_p50` / `_p99` suffix
// shorthand, and dropping label sets and `prefix_*` wildcards.
func documentedSeries(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("../../METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		prev, prevEnd := "", 0
		for _, m := range backticked.FindAllStringSubmatchIndex(line, -1) {
			tok := line[m[2]:m[3]]
			name := ""
			switch {
			case strings.HasPrefix(tok, "michican_") && !strings.Contains(tok, "*"):
				name = labelSet.ReplaceAllString(tok, "")
			case strings.HasPrefix(tok, "_") && prev != "" && line[prevEnd:m[0]] == " / ":
				name = prev[:strings.LastIndex(prev, "_")] + tok
			}
			prevEnd = m[1]
			if name == "" {
				prev = ""
				continue
			}
			prev = name
			if sub := braceList.FindStringSubmatchIndex(name); sub != nil {
				for _, alt := range strings.Split(name[sub[2]:sub[3]], ",") {
					out[name[:sub[0]]+alt+name[sub[1]:]] = true
				}
				prev = ""
				continue
			}
			out[name] = true
		}
	}
	return out
}

// seriesFamilies returns the series families a Prometheus-style text body
// names, from its # TYPE headers or, lacking those, its sample lines.
func seriesFamilies(body string) map[string]bool {
	out := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			out[strings.Fields(f)[0]] = true
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := strings.Fields(line)[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] = true
	}
	return out
}

// TestMetricsDocInSync holds METRICS.md to what the code registers. A full
// per-vehicle stack — a fleet vehicle with forensics and watch, a durable
// sink, and the obs server over its hub registry — must register nothing
// METRICS.md leaves out, and every series METRICS.md names must be
// registered by that stack, rendered by the fleet aggregate's
// /fleet/metrics text, or listed in metricsDocElsewhere.
func TestMetricsDocInSync(t *testing.T) {
	spec := experiment.FleetSpecAt(1, 0, 300_000, false)
	spec.Attack, spec.Watch = experiment.FleetAttackSpoof, true
	dv, err := experiment.StartDurableVehicle(t.TempDir(), spec, 0, "", store.SinkOptions{CheckpointIntervalBits: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer dv.Close()
	dv.Advance(spec.HorizonBits)
	if err := dv.FinalizeDurable(dv.Finalize()); err != nil {
		t.Fatal(err)
	}
	srv, err := obs.Serve("127.0.0.1:0", dv.Hub(), nil, obs.WithStore(dv.Store), obs.WithWatch(dv.Watch()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, srv.URL()+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	registered := seriesFamilies(body)
	var fleetText bytes.Buffer
	if err := (fleet.MetricsView{}).WriteMetricsText(&fleetText); err != nil {
		t.Fatal(err)
	}
	fleetOps := seriesFamilies(fleetText.String())

	doc := documentedSeries(t)
	var undocumented, unregistered []string
	for name := range registered {
		if !doc[name] {
			undocumented = append(undocumented, name)
		}
	}
	for name := range doc {
		if _, ok := metricsDocElsewhere[name]; !registered[name] && !fleetOps[name] && !ok {
			unregistered = append(unregistered, name)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(unregistered)
	if len(undocumented) > 0 {
		t.Errorf("registered but missing from METRICS.md: %v", undocumented)
	}
	if len(unregistered) > 0 {
		t.Errorf("in METRICS.md but registered by nothing: %v", unregistered)
	}
	if len(registered) < 40 || len(fleetOps) != 5 {
		t.Fatalf("stack registered %d families and the fleet text %d: the scan found too little", len(registered), len(fleetOps))
	}
}
