#!/usr/bin/env bash
# Builds loadbench inside the checkout and runs it from the checkout root.
# A run may write nothing outside the checkout, so what the Go toolchain
# writes — build cache, temp files, its telemetry counters — is sent to
# .bench_build/, where the binary goes too.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [ ! -f go.mod ]; then
	echo "loadbench: no go.mod in $root: the program to measure is not here" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# The go command otherwise starts a detached telemetry child that outlives
# it; a run must leave no process behind.
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	go build -o "$build/loadbench" ./loadbench
exec "$build/loadbench" "$@"
