#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the repository root. Everything the build and the runs
# write (Go build cache, binary, store directories, traces) stays under
# .bench_build/ in the checkout.
#
#   bash benchmark/run.sh --workload fleet-attacked --seed 1 --seconds 25 --trace 0
#   bash benchmark/run.sh -seed 1          # a full set; see README.md
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point it into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/benchmark" && go build -o "$out/michican-benchmark" .) >&2
exec "$out/michican-benchmark" "$@"
