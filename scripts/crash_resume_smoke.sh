#!/usr/bin/env bash
# Crash-resume determinism smoke: SIGKILL a durable fleet run mid-flight,
# resume it from the last per-vehicle checkpoints, and assert the resumed
# stores are byte-identical (SHA-256 segment digests) to an uninterrupted
# run of the same spec. This is the recovery protocol's end-to-end check —
# if any vehicle's post-resume tail diverged by a single bit, its digest
# would differ.
set -euo pipefail

VEHICLES=${VEHICLES:-6}
HORIZON=${HORIZON:-1500000}
KILL_AFTER=${KILL_AFTER:-0.6}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/michican-crash-smoke-XXXXXX")
trap 'rm -rf "$WORK"' EXIT

FLEET=(go run ./cmd/michican-fleet)
if [[ -n "${FLEET_BIN:-}" ]]; then
  FLEET=("$FLEET_BIN")
fi

# wait_for_checkpoint returns once any vehicle store under $1 holds a
# checkpoint — the run is then part-way through its horizon — or after
# KILL_AFTER seconds, whichever comes first. A fixed delay alone lands after
# the run has finished on a host fast enough to run the whole horizon in it.
wait_for_checkpoint() {
  local polls
  polls=$(awk -v s="$KILL_AFTER" 'BEGIN { printf "%d", s * 100 }')
  for ((i = 0; i < polls; i++)); do
    if compgen -G "$1/*/checkpoint-*.json" >/dev/null; then
      return
    fi
    sleep 0.01
  done
}

# plan_cache_shared fails unless the resume output in $1 reports a plan cache
# with resident plans and hits: a resumed roster must compile through the
# fleet's one shared cache, not fall back to private per-vehicle compiles.
plan_cache_shared() {
  if ! grep -Eq '^plan cache: [1-9][0-9]* plans resident \([0-9]+ bytes\), [1-9][0-9]* hits' "$1"; then
    echo "FAIL: the resumed fleet's plan cache is empty: $(grep '^plan cache:' "$1" || echo 'no plan cache line')" >&2
    exit 1
  fi
}

# -watch attaches a live SLO engine to every vehicle: each store also gets a
# persisted alert log, so the digest diff below additionally proves alerts
# regenerate byte-identically across a kill + resume (the resumed roster
# re-attaches engines from the stored per-vehicle specs).
echo "== reference: uninterrupted durable run ($VEHICLES vehicles, $HORIZON bits, watch on)"
"${FLEET[@]}" -vehicles "$VEHICLES" -horizon-bits "$HORIZON" -watch -store "$WORK/ref" >/dev/null

echo "== crash run: SIGKILL at the first checkpoint, at most ${KILL_AFTER}s in"
"${FLEET[@]}" -vehicles "$VEHICLES" -horizon-bits "$HORIZON" -watch -store "$WORK/crash" >/dev/null 2>&1 &
PID=$!
wait_for_checkpoint "$WORK/crash"
# go run execs the built binary as a child; kill the whole process group is
# overkill here — kill the direct child tree.
pkill -9 -P "$PID" 2>/dev/null || true
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true

if [[ ! -d "$WORK/crash" ]]; then
  echo "crash run died before creating any stores; raise KILL_AFTER" >&2
  exit 1
fi

echo "== resume from last checkpoints"
"${FLEET[@]}" -store "$WORK/crash" -resume | tee "$WORK/resume.out" | grep '^resumed roster'
if ! grep -Eq 'resumed roster from .*: [1-9][0-9]* vehicles continuing' "$WORK/resume.out"; then
  echo "FAIL: the kill landed after the run finished — nothing was resumed; lower KILL_AFTER" >&2
  exit 1
fi
plan_cache_shared "$WORK/resume.out"

echo "== compare store digests"
"${FLEET[@]}" -store-digest -store "$WORK/ref" > "$WORK/ref.digest"
"${FLEET[@]}" -store-digest -store "$WORK/crash" > "$WORK/crash.digest"
if ! diff -u "$WORK/ref.digest" "$WORK/crash.digest"; then
  echo "FAIL: resumed stores diverge from the uninterrupted reference" >&2
  exit 1
fi
# The alert byte-identity claim must not pass vacuously: the reference run
# has to have persisted at least one alert segment.
if ! ls "$WORK"/ref/*/alerts-*.seg >/dev/null 2>&1; then
  echo "FAIL: no persisted alert logs in the reference store; -watch did not persist" >&2
  exit 1
fi
echo "OK: $(wc -l < "$WORK/ref.digest") vehicle stores (incl. alert logs) byte-identical after kill + resume"

# Second leg: crash under one -slice-bits and resume under another. The
# simulated wire never depends on slicing, and the event and incident logs
# must not either, so their per-vehicle segment hashes must equal the
# reference's (which ran at the default slicing, a third one). The alert logs
# are left out of this comparison on purpose: their *set* does not depend on
# slicing, but their *order* follows the forensics engine's reorder-window
# drain timing, which can (e.g. 2 of 6 stores differ at -slice-bits 16384).
# Resume does not trip on it because checkpoints cursor the alert log only
# at finalize.
CRASH_SLICE=4093
RESUME_SLICE=131072
echo "== crash run at -slice-bits $CRASH_SLICE: SIGKILL at the first checkpoint, at most ${KILL_AFTER}s in"
"${FLEET[@]}" -vehicles "$VEHICLES" -horizon-bits "$HORIZON" -watch -slice-bits "$CRASH_SLICE" -store "$WORK/crash2" >/dev/null 2>&1 &
PID=$!
wait_for_checkpoint "$WORK/crash2"
pkill -9 -P "$PID" 2>/dev/null || true
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
if [[ ! -d "$WORK/crash2" ]]; then
  echo "second crash run died before creating any stores; raise KILL_AFTER" >&2
  exit 1
fi

echo "== resume at -slice-bits $RESUME_SLICE"
"${FLEET[@]}" -store "$WORK/crash2" -resume -slice-bits "$RESUME_SLICE" | tee "$WORK/resume2.out" | grep '^resumed roster'
if ! grep -Eq 'resumed roster from .*: [1-9][0-9]* vehicles continuing' "$WORK/resume2.out"; then
  echo "FAIL: the second kill landed after the run finished — nothing was resumed; lower KILL_AFTER" >&2
  exit 1
fi
plan_cache_shared "$WORK/resume2.out"

echo "== compare event and incident segment hashes"
(cd "$WORK/ref" && sha256sum */events-*.seg */incidents-*.seg) > "$WORK/ref.sha"
(cd "$WORK/crash2" && sha256sum */events-*.seg */incidents-*.seg) > "$WORK/crash2.sha"
if ! diff -u "$WORK/ref.sha" "$WORK/crash2.sha"; then
  echo "FAIL: stores resumed at a different -slice-bits diverge from the reference" >&2
  exit 1
fi
echo "OK: $(wc -l < "$WORK/ref.sha") event and incident segments byte-identical after kill + resume at a different slicing"
