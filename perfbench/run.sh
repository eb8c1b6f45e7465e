#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run it from the repository root, e.g.
#
#   bash perfbench/run.sh --workload daemon-mix --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays in the build directory ($CARGO_TARGET_DIR, by
# default .bench_build/): the binary, the Go build cache, and the caches and
# trace files of the runs.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
