package main

import (
	"crypto/sha256"
	"embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"michican/internal/experiment"
	"michican/internal/store"
	"michican/internal/telemetry"
)

// vehicleIdentity is what a vehicle's run produced: its store's final
// Completed checkpoint, a digest of the event stream the store persisted,
// and a digest of its hub counters.
//
// Against the golden file every field must match but two. Events and
// PrefixHash, the checkpoint's cursor over the stored records, also cover
// the fast-forward span records, which name the ladder rung that carried
// each stretch; a change to the ladder changes them without changing what
// was simulated, so there a difference is a warning. StreamEvents and
// StreamHash cover the same persisted stream read back through the store
// with the span records left out, so a change that drops, reorders or
// alters a persisted event fails. Within one build (repetitions of a run,
// fleet-attacked against fleet-resume) every field must match.
type vehicleIdentity struct {
	Vehicle      int    `json:"vehicle"`
	Events       int64  `json:"events"`
	PrefixHash   string `json:"prefix_hash"`
	StreamEvents int64  `json:"stream_events"`
	StreamHash   string `json:"stream_sha256"`
	Incidents    int64  `json:"incidents"`
	IncidentHash string `json:"incident_hash"`
	Alerts       int64  `json:"alerts"`
	AlertHash    string `json:"alert_hash"`
	Counters     string `json:"counters_sha256"`
}

// identity is a repetition's output fingerprint.
type identity struct {
	Paper    string            `json:"paper_sha256,omitempty"`
	Vehicles []vehicleIdentity `json:"vehicles,omitempty"`
}

// outputDiff compares what a vehicle simulated and persisted; withStream
// includes the persisted-stream digest, which only a run's first
// repetition reads back.
func (v vehicleIdentity) outputDiff(w vehicleIdentity, withStream bool) error {
	if withStream && (v.StreamEvents != w.StreamEvents || v.StreamHash != w.StreamHash) {
		return fmt.Errorf("vehicle %d: persisted stream %d/%s, want %d/%s", v.Vehicle, v.StreamEvents, v.StreamHash, w.StreamEvents, w.StreamHash)
	}
	if v.Incidents != w.Incidents || v.IncidentHash != w.IncidentHash {
		return fmt.Errorf("vehicle %d: incident log %d/%s, want %d/%s", v.Vehicle, v.Incidents, v.IncidentHash, w.Incidents, w.IncidentHash)
	}
	if v.Alerts != w.Alerts || v.AlertHash != w.AlertHash {
		return fmt.Errorf("vehicle %d: alert log %d/%s, want %d/%s", v.Vehicle, v.Alerts, v.AlertHash, w.Alerts, w.AlertHash)
	}
	if v.Counters != w.Counters {
		return fmt.Errorf("vehicle %d: hub counters digest %s, want %s", v.Vehicle, v.Counters, w.Counters)
	}
	return nil
}

func (v vehicleIdentity) cursorDiff(w vehicleIdentity) error {
	if v.Events != w.Events || v.PrefixHash != w.PrefixHash {
		return fmt.Errorf("vehicle %d: stored records %d/%s, want %d/%s", v.Vehicle, v.Events, v.PrefixHash, w.Events, w.PrefixHash)
	}
	return nil
}

// compareVehicles compares two rosters. It returns the first output
// difference and, apart, the first checkpoint-cursor difference, which the
// caller treats as an error or, against the golden file, as a warning.
func compareVehicles(got, want []vehicleIdentity, withStream bool) (output, cursor error) {
	if len(got) != len(want) {
		return fmt.Errorf("%d vehicles, want %d", len(got), len(want)), nil
	}
	for i := range got {
		if err := got[i].outputDiff(want[i], withStream); err != nil && output == nil {
			output = err
		}
		if err := got[i].cursorDiff(want[i]); err != nil && cursor == nil {
			cursor = err
		}
	}
	return output, cursor
}

// sameRoster reports any difference between two first repetitions' rosters.
func sameRoster(got, want []vehicleIdentity) error {
	return errors.Join(compareVehicles(got, want, true))
}

// sameIdentity checks that every repetition of a run produced the outputs
// of the first: the simulation is deterministic for a seed.
func (c *checks) sameIdentity(rep int, id *identity) {
	if c.first == nil {
		c.first = id
		return
	}
	var err error
	if id.Paper != c.first.Paper {
		err = fmt.Errorf("rep %d: paper results digest %s differs from rep 0's %s", rep, id.Paper, c.first.Paper)
	} else if out, cur := compareVehicles(id.Vehicles, c.first.Vehicles, false); out != nil || cur != nil {
		err = fmt.Errorf("rep %d differs from rep 0: %w", rep, errors.Join(out, cur))
	}
	c.op(err)
}

// goldenFile holds a seed's reference outputs (benchmark/golden/seed-N.json).
type goldenFile struct {
	Seed   int64             `json:"seed"`
	Scale  string            `json:"scale"`
	Paper  string            `json:"paper_sha256"`
	Fleet  []vehicleIdentity `json:"fleet"`
	Benign []vehicleIdentity `json:"vehicle_benign"`
}

//go:embed golden
var goldenFS embed.FS

func goldenName(seed int64) string { return fmt.Sprintf("seed-%d.json", seed) }

// loadGolden returns the seed's golden file, or ok=false when there is none.
func loadGolden(seed int64) (g goldenFile, ok bool, err error) {
	data, err := goldenFS.ReadFile("golden/" + goldenName(seed))
	if errors.Is(err, fs.ErrNotExist) {
		return g, false, nil
	}
	if err != nil {
		return g, false, err
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return g, false, fmt.Errorf("golden %s: %w", goldenName(seed), err)
	}
	return g, true, nil
}

// golden compares the first repetition's outputs with the seed's golden
// file, when one exists for this scale.
func (c *checks) golden(opts runOpts, workload string, id *identity) {
	g, ok, err := loadGolden(opts.seed)
	if err != nil {
		c.op(err)
		return
	}
	if !ok || g.Scale != opts.sc.key() {
		return
	}
	var out, cur error
	switch workload {
	case "paper-repro":
		if id.Paper != g.Paper {
			out = fmt.Errorf("paper results digest %s, golden %s", id.Paper, g.Paper)
		}
	case "fleet-attacked", "fleet-resume":
		out, cur = compareVehicles(id.Vehicles, g.Fleet, true)
	case "vehicle-benign":
		out, cur = compareVehicles(id.Vehicles, g.Benign, true)
	}
	if out != nil {
		out = fmt.Errorf("golden %s: %w", goldenName(opts.seed), out)
	}
	c.op(out)
	if cur != nil {
		c.warn("golden %s: checkpoint cursors changed, but the persisted stream without fast-forward span records matches: %v", goldenName(opts.seed), cur)
	}
}

// goldenDir is where -write-golden writes, relative to the repository root
// that run.sh starts from; the files are embedded from there at build time.
const goldenDir = "benchmark/golden"

// writeGolden runs each workload once at the default scale and writes the
// seed's golden file. fleet-resume must reproduce fleet-attacked's store
// byte for byte before anything is written.
func writeGolden(seed int64) error {
	g := goldenFile{Seed: seed, Scale: defaultScale.key()}
	ids := map[string]identity{}
	for _, w := range workloads {
		rep, err := runWorkload(runOpts{workload: w.name, seed: seed, sc: defaultScale, noGolden: true})
		if err != nil {
			return err
		}
		if !rep.Correct {
			return fmt.Errorf("%s failed its checks: %v", w.name, rep.Failures)
		}
		ids[w.name] = rep.Identity
	}
	if err := sameRoster(ids["fleet-resume"].Vehicles, ids["fleet-attacked"].Vehicles); err != nil {
		return fmt.Errorf("fleet-resume does not reproduce fleet-attacked: %w", err)
	}
	g.Paper = ids["paper-repro"].Paper
	g.Fleet = ids["fleet-attacked"].Vehicles
	g.Benign = ids["vehicle-benign"].Vehicles
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(goldenDir, goldenName(seed)), append(data, '\n'), 0o644)
}

// jsonDigest is the sha256 of v's JSON encoding.
func jsonDigest(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// countersDigest hashes a vehicle hub's counters, leaving out the series
// that describe the stepping machinery (michican_ff_*) and the store's own
// bookkeeping (michican_store_*, which differs between a fresh and a resumed
// run by design).
func countersDigest(snap telemetry.CounterSnapshot) string {
	keys := make([]string, 0, len(snap))
	for k := range snap {
		if !strings.HasPrefix(k, "michican_ff_") && !strings.HasPrefix(k, "michican_store_") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %d\n", k, snap[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// vehicleIdentityOf reads a finished durable vehicle's identity: its final
// checkpoint must be marked Completed.
func vehicleIdentityOf(dv *experiment.DurableVehicle) (vehicleIdentity, error) {
	id := vehicleIdentity{Vehicle: dv.ID(), Counters: countersDigest(dv.Hub().Registry().SnapshotCounters())}
	cps, err := dv.Store.Checkpoints()
	if err != nil {
		return id, err
	}
	if len(cps) == 0 || !cps[len(cps)-1].Completed {
		return id, fmt.Errorf("vehicle %d: no Completed checkpoint", dv.ID())
	}
	cp := cps[len(cps)-1]
	id.Events, id.PrefixHash = cp.Events, cp.PrefixHash
	id.Incidents, id.IncidentHash = cp.Incidents, cp.IncidentHash
	id.Alerts, id.AlertHash = cp.Alerts, cp.AlertHash
	return id, nil
}

// streamDigest reopens a closed vehicle store and hashes the events it
// persisted, as the store decodes them, in stored order, leaving out the
// fast-forward span records.
func streamDigest(dir string) (n int64, digest string, err error) {
	st, err := store.Open(dir)
	if err != nil {
		return 0, "", err
	}
	h := sha256.New()
	var buf []byte
	err = st.Events(func(ev telemetry.NamedEvent) error {
		if ev.Kind == telemetry.EvFFSpan {
			return nil
		}
		buf = binary.AppendVarint(buf[:0], ev.Time)
		buf = append(buf, byte(ev.Kind))
		buf = binary.AppendVarint(buf, ev.A)
		buf = binary.AppendVarint(buf, ev.B)
		buf = binary.AppendUvarint(buf, uint64(len(ev.Node)))
		buf = append(buf, ev.Node...)
		h.Write(buf)
		n++
		return nil
	})
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return n, hex.EncodeToString(h.Sum(nil)), err
}

// addStreamDigests fills each vehicle's persisted-stream digest from its
// store directory (dirs[i] belongs to ids[i]), two stores at a time.
func addStreamDigests(ids []vehicleIdentity, dirs []string) error {
	if len(ids) != len(dirs) {
		return fmt.Errorf("%d vehicle identities for %d stores", len(ids), len(dirs))
	}
	errs := make([]error, len(dirs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(dirs); i = int(next.Add(1) - 1) {
				ids[i].StreamEvents, ids[i].StreamHash, errs[i] = streamDigest(dirs[i])
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
