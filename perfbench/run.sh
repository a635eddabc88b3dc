#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload fig9-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build and module caches, Go's own
# config and telemetry files, temporary files, the binary) stays under
# the build directory: $CARGO_TARGET_DIR when set, else .bench_build,
# relative to the checkout root. The benchmark's run records go there too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp" "$build/config"
(
	cd perfbench
	GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false \
		go build -o "$build/perfbench" .
) >&2
exec "$build/perfbench" -out "$build/perfbench-out" "$@"
