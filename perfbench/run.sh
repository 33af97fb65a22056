#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes to .bench_build/ at the
# repository root: the Go build cache, the benchmark binary, scratch
# directories, and the span files of traced runs.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
