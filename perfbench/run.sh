#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload sim-suite --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, temporary stores, trace files) stays under
# .bench_build/ in that directory. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/experiments" ]]; then
	echo "perfbench: run from the root of a carf source tree (go.mod and internal/ not found in $root)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOFLAGS="" GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
# The go command's own state (telemetry counters) goes under the
# checkout too, and git, asked for the revision, stops at the checkout.
export XDG_CONFIG_HOME="$build/config" GIT_CEILING_DIRECTORIES="$(dirname "$root")" GIT_CONFIG_NOSYSTEM=1 GIT_CONFIG_GLOBAL=/dev/null

(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
