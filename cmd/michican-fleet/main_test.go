package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fleetCmd runs the command with args and returns its exit status, stdout
// and stderr.
func fleetCmd(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// mustFleet runs the command and fails the test unless it exits 0.
func mustFleet(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errOut := fleetCmd(args...)
	if code != 0 {
		t.Fatalf("michican-fleet %s: exit %d\n%s", strings.Join(args, " "), code, errOut)
	}
	return out
}

// roster runs a small watched fleet into a fresh store under dir with
// several checkpoints per vehicle.
func roster(t *testing.T, dir string) {
	t.Helper()
	mustFleet(t, "-vehicles", "4", "-horizon-bits", "300000", "-watch",
		"-checkpoint-interval", "65536", "-store", dir)
}

func TestExitCodes(t *testing.T) {
	empty := t.TempDir()
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string // substring of stderr
	}{
		{[]string{"-h"}, 0, "-horizon-bits"},
		{[]string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"-vehicles", "x"}, 2, "invalid value"},
		{[]string{"-store-digest"}, 1, "-store-digest needs -store"},
		{[]string{"-agg-overhead", "-horizon-bits", "0"}, 1, "agg-overhead needs -horizon-bits > 0"},
		{[]string{"-store", empty, "-resume"}, 1, "no vehicle stores under"},
		{[]string{"-store-digest", "-store", filepath.Join(empty, "none")}, 1, "no such file"},
	} {
		code, _, errOut := fleetCmd(tc.args...)
		if code != tc.code || !strings.Contains(errOut, tc.stderr) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d and %q", tc.args, code, errOut, tc.code, tc.stderr)
		}
	}
}

// TestStoreDigestAndResumeComplete digests a finished roster, a flat store
// (one vehicle's directory on its own) included, and resumes it: nothing is
// left to continue.
func TestStoreDigestAndResumeComplete(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	roster(t, dir)
	lines := strings.Split(strings.TrimSpace(mustFleet(t, "-store-digest", "-store", dir)), "\n")
	if len(lines) != 4 {
		t.Fatalf("digest has %d lines, want one per vehicle:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	for i, l := range lines {
		f := strings.Fields(l)
		if len(f) != 4 || f[0] != filepath.Base(vehicleDir(dir, i)) || len(f[1]) != 64 || f[2] != "segments=3" {
			t.Errorf("digest line %d = %q, want v%05d, a sha256 and the event, incident and alert segments", i, l, i)
		}
	}
	flat := strings.Fields(mustFleet(t, "-store-digest", "-store", vehicleDir(dir, 0)))
	if want := strings.Fields(lines[0]); len(flat) != 4 || flat[0] != "." || flat[1] != want[1] {
		t.Errorf("flat digest %q, want \".\" with vehicle 0's hash %s", flat, want[1])
	}
	if out := mustFleet(t, "-store", dir, "-resume"); !strings.Contains(out, "0 vehicles continuing, 4 already complete") {
		t.Errorf("resume of a complete roster printed:\n%s", out)
	}
}

// crashImage copies the finished roster under ref to dir and deletes each
// vehicle's two newest checkpoints, so every store's logs run past the
// newest checkpoint left: the image a crash between checkpoints leaves.
func crashImage(t *testing.T, ref, dir string) {
	t.Helper()
	vehicles, err := filepath.Glob(filepath.Join(ref, "v*"))
	if err != nil || len(vehicles) == 0 {
		t.Fatalf("no vehicle stores under %s (%v)", ref, err)
	}
	for _, v := range vehicles {
		dst := filepath.Join(dir, filepath.Base(v))
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(v)
		if err != nil {
			t.Fatal(err)
		}
		var cps []string
		for _, f := range files {
			if strings.HasPrefix(f.Name(), "checkpoint-") {
				cps = append(cps, f.Name())
			}
		}
		if len(cps) < 3 {
			t.Fatalf("%s holds %d checkpoints, want at least 3", v, len(cps))
		}
		sort.Strings(cps)
		drop := map[string]bool{cps[len(cps)-1]: true, cps[len(cps)-2]: true}
		for _, f := range files {
			if drop[f.Name()] {
				continue
			}
			b, err := os.ReadFile(filepath.Join(v, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, f.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestResumeCrashImage resumes a crash image at the slicing it was written
// under, which must reproduce every segment (alert logs included), and at
// another, which must reproduce the event and incident segments. Alert
// order may follow the slicing, as in scripts/crash_resume_smoke.sh.
func TestResumeCrashImage(t *testing.T) {
	root := t.TempDir()
	ref := filepath.Join(root, "ref")
	roster(t, ref)
	refDigest := mustFleet(t, "-store-digest", "-store", ref)

	same := filepath.Join(root, "same")
	crashImage(t, ref, same)
	if out := mustFleet(t, "-store", same, "-resume"); !strings.Contains(out, "4 vehicles continuing, 0 already complete") {
		t.Errorf("resume printed:\n%s", out)
	}
	if got := mustFleet(t, "-store-digest", "-store", same); got != refDigest {
		t.Errorf("resumed digest differs from the uninterrupted run's:\n%s\nvs\n%s", got, refDigest)
	}

	other := filepath.Join(root, "other")
	crashImage(t, ref, other)
	if out := mustFleet(t, "-store", other, "-resume", "-slice-bits", "4093"); !strings.Contains(out, "4 vehicles continuing") {
		t.Errorf("resume at -slice-bits 4093 printed:\n%s", out)
	}
	segs, err := filepath.Glob(filepath.Join(ref, "v*", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, seg := range segs {
		name := filepath.Base(seg)
		if !strings.HasPrefix(name, "events-") && !strings.HasPrefix(name, "incidents-") {
			continue
		}
		rel, _ := filepath.Rel(ref, seg)
		want, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(other, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: resumed at another slicing, %d bytes vs the reference's %d", rel, len(got), len(want))
		}
		compared++
	}
	if compared != 8 {
		t.Errorf("compared %d event and incident segments, want 8", compared)
	}
}
