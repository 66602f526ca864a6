#!/usr/bin/env bash
# Builds the benchmark once per checkout and runs it:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything it writes stays inside the checkout: the binary, the Go build
# cache and the stores under .bench_build/, trace.json under bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry counters
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
# go build is a no-op when the binary is current; compile time is not part
# of any metric, set-up time included.
(cd bench && go build -o "$build/stackbench" .)
exec "$build/stackbench" "$@"
