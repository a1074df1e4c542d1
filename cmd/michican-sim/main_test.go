package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"michican/internal/experiment"
	"michican/internal/obs"
	"michican/internal/store"
	"michican/internal/telemetry"
)

// sim runs the command with args and returns its stdout.
func sim(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), err
}

// mustSim runs the command and fails the test on an error.
func mustSim(t *testing.T, args ...string) string {
	t.Helper()
	out, err := sim(t, args...)
	if err != nil {
		t.Fatalf("michican-sim %s: %v", strings.Join(args, " "), err)
	}
	return out
}

// TestJSONOutcomeSchema pins the -json outcome's keys per scenario: the
// attacker block only with an attacker, the defense block only with the
// defense.
func TestJSONOutcomeSchema(t *testing.T) {
	base := []string{"attack", "bits", "bus_load", "defender", "defender_id", "destroyed_attempts",
		"duration_ms", "frames", "outcome", "rate_bits_per_second"}
	ctl := []string{"arbitration_losses", "busoff_events", "name", "rec", "recoveries", "rx_success",
		"state", "tec", "tx_attempts", "tx_success"}
	for _, tc := range []struct {
		args     []string
		attacker bool
		defense  bool
	}{
		{[]string{"-attack", "spoof"}, true, true},
		{[]string{"-attack", "dos", "-restbus"}, true, true},
		{[]string{"-attack", "toggle", "-watch"}, true, true},
		{[]string{"-attack", "misc", "-no-defense"}, true, false},
		{[]string{"-attack", "none"}, false, true},
	} {
		out := mustSim(t, append(tc.args, "-duration", "30ms", "-json")...)
		var doc map[string]json.RawMessage
		if err := json.Unmarshal([]byte(out), &doc); err != nil {
			t.Fatalf("%v: stdout is not one JSON object: %v\n%s", tc.args, err, out)
		}
		want := append([]string(nil), base...)
		if tc.attacker {
			want = append(want, "attack_id", "attacker")
		}
		if tc.defense {
			want = append(want, "defense")
		}
		sort.Strings(want)
		if got := sortedKeys(doc); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: keys %v, want %v", tc.args, got, want)
		}
		var def map[string]json.RawMessage
		if err := json.Unmarshal(doc["defender"], &def); err != nil || !reflect.DeepEqual(sortedKeys(def), ctl) {
			t.Errorf("%v: defender block keys %v (%v), want %v", tc.args, sortedKeys(def), err, ctl)
		}
	}
}

func sortedKeys(m map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestBadScenarioLeavesNoStore checks that a scenario this build cannot run
// fails before -store creates anything, so the directory stays free for a
// corrected run.
func TestBadScenarioLeavesNoStore(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-attack", "bogus"}, "unknown attack"},
		{[]string{"-matrix", "/nonexistent/matrix.txt"}, "no such file"},
		{[]string{"-defender", "0xZZZ"}, ""},
		{[]string{"-attack-id", "0x900"}, ""},
	} {
		dir := filepath.Join(t.TempDir(), "d")
		_, err := sim(t, append(tc.args, "-store", dir)...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
		if _, serr := os.Stat(filepath.Join(dir, "meta.json")); !os.IsNotExist(serr) {
			t.Errorf("%v: a failed run left %s/meta.json behind (%v)", tc.args, dir, serr)
		}
		mustSim(t, "-attack", "spoof", "-duration", "20ms", "-store", dir)
	}
}

// TestResumeRefusesBadConfigUntouched resumes a store whose recorded
// scenario this build cannot run: the error names the scenario fault and
// the store is not rewound.
func TestResumeRefusesBadConfigUntouched(t *testing.T) {
	dir := t.TempDir()
	st, err := experiment.CreateStore(dir, store.Meta{Kind: "sim"}, simParams{Rate: 50_000, Defender: "0x173", Attack: "bogus"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirDigest(t, dir)
	if _, err := sim(t, "-resume", dir); err == nil || !strings.Contains(err.Error(), "unknown attack") {
		t.Fatalf("resume of a bogus scenario: err = %v, want unknown attack", err)
	}
	if after := dirDigest(t, dir); !reflect.DeepEqual(before, after) {
		t.Errorf("refused resume changed the store:\n%v\nvs\n%v", before, after)
	}
}

// dirDigest maps every file in the flat directory dir to its contents.
func dirDigest(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestResumeEdges covers -resume on a directory that holds no store and on
// a store whose run already completed.
func TestResumeEdges(t *testing.T) {
	fresh := filepath.Join(t.TempDir(), "fresh")
	if _, err := sim(t, "-resume", fresh); err == nil {
		t.Error("-resume of a directory with no store succeeded")
	}
	if _, err := os.Stat(filepath.Join(fresh, "meta.json")); !os.IsNotExist(err) {
		t.Errorf("-resume of a fresh directory created a store (%v)", err)
	}

	done := filepath.Join(t.TempDir(), "done")
	mustSim(t, "-attack", "spoof", "-duration", "20ms", "-store", done)
	_, err := sim(t, "-resume", done)
	if !errors.Is(err, experiment.ErrRunComplete) || !strings.Contains(err.Error(), "-replay-window") {
		t.Errorf("-resume of a completed store: err = %v, want ErrRunComplete with a -replay-window hint", err)
	}
	if _, err := sim(t, "-store", done, "-resume", done); err == nil {
		t.Error("-store with -resume succeeded")
	}
}

// TestResumeCrashImageByteIdentical makes a real crash image, a completed
// store with its newest checkpoints deleted so its logs run past the last
// one left, and resumes it: every segment must come out byte-identical to
// the uninterrupted run's.
func TestResumeCrashImageByteIdentical(t *testing.T) {
	root := t.TempDir()
	ref, crash := filepath.Join(root, "ref"), filepath.Join(root, "crash")
	mustSim(t, "-store", ref, "-attack", "spoof", "-restbus", "-watch", "-duration", "4s", "-checkpoint-interval", "65536")
	if err := os.Mkdir(crash, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range dirDigest(t, ref) {
		if err := os.WriteFile(filepath.Join(crash, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cps, err := filepath.Glob(filepath.Join(crash, "checkpoint-*.json"))
	if err != nil || len(cps) < 3 {
		t.Fatalf("reference run wrote %d checkpoints (%v), want at least 3", len(cps), err)
	}
	sort.Strings(cps)
	for _, cp := range cps[len(cps)-2:] {
		if err := os.Remove(cp); err != nil {
			t.Fatal(err)
		}
	}
	out := mustSim(t, "-resume", crash)
	if !strings.Contains(out, "resuming from "+crash) {
		t.Errorf("resume printed no resume banner:\n%s", out)
	}
	segs, err := filepath.Glob(filepath.Join(ref, "*.seg"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("reference run wrote %d segments (%v), want the event, incident and alert logs", len(segs), err)
	}
	for _, seg := range segs {
		want, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(crash, filepath.Base(seg)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: resumed segment differs from the reference (%d vs %d bytes)", filepath.Base(seg), len(got), len(want))
		}
	}
}

// TestReplayMatchesLive replays a whole completed store and requires its
// incident document to equal the live run's, recording end included. Only
// the events the engine folded differ: the store keeps no fast-forward
// spans.
func TestReplayMatchesLive(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "d")
	live, rep := filepath.Join(root, "live.json"), filepath.Join(root, "rep.json")
	mustSim(t, "-attack", "spoof", "-restbus", "-duration", "2s", "-watch", "-store", dir, "-incidents", live)
	mustSim(t, "-store", dir, "-replay-window", ":", "-incidents", rep)
	read := func(path string) obs.IncidentsView {
		var v obs.IncidentsView
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &v)
		}
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a, b := read(live), read(rep)
	if len(a.Incidents) == 0 {
		t.Fatal("the live run reconstructed no incidents")
	}
	if a.Engine.RecordingEnd != 100_000 {
		t.Errorf("live recording end %d, want 100000 bits", a.Engine.RecordingEnd)
	}
	a.Engine.EventsSeen, b.Engine.EventsSeen = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("replayed incident document differs from the live one:\nlive %+v\nreplay %+v", a.Engine, b.Engine)
	}
}

// TestReplayWindowErrors covers malformed, empty and store-less windows.
func TestReplayWindowErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "d")
	mustSim(t, "-attack", "spoof", "-duration", "20ms", "-store", dir)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-store", dir, "-replay-window", "5:2"}, "empty window"},
		{[]string{"-store", dir, "-replay-window", "x:"}, "bad window start"},
		{[]string{"-store", dir, "-replay-window", "1:y"}, "bad window end"},
		{[]string{"-replay-window", ":"}, "needs -store"},
	} {
		if _, err := sim(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestExportersParse checks that -events writes a JSONL stream the reader
// accepts and -chrome-trace a JSON document, for a live run and a replay.
func TestExportersParse(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "d")
	for _, args := range [][]string{
		{"-attack", "spoof", "-duration", "50ms", "-store", dir},
		{"-store", dir, "-replay-window", ":"},
	} {
		events, chrome := filepath.Join(root, "e.jsonl"), filepath.Join(root, "t.json")
		out := mustSim(t, append(args, "-events", events, "-chrome-trace", chrome)...)
		f, err := os.Open(events)
		if err != nil {
			t.Fatal(err)
		}
		named, err := telemetry.ReadJSONL(f)
		f.Close()
		if err != nil || len(named) == 0 {
			t.Errorf("%v: -events holds %d events (%v)", args, len(named), err)
		}
		var trace struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		b, err := os.ReadFile(chrome)
		if err == nil {
			err = json.Unmarshal(b, &trace)
		}
		if err != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("%v: -chrome-trace holds %d trace events (%v)", args, len(trace.TraceEvents), err)
		}
		if !strings.Contains(out, "written to "+events) {
			t.Errorf("%v: no -events note on stdout:\n%s", args, out)
		}
	}
}
