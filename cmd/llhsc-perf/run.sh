#!/usr/bin/env bash
# Builds llhsc-perf from source and runs it with the given arguments:
#
#	bash cmd/llhsc-perf/run.sh --workload example --seed 1 --seconds 10 --trace 0
#	bash cmd/llhsc-perf/run.sh -json out.json
#
# The binary, the Go build cache and the go command's own state all live
# under .bench_build/ at the repository root, so a run writes nothing
# outside the checkout and never reaches the network.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # where the go command keeps telemetry counters
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/llhsc-perf" .)
exec "$out/llhsc-perf" "$@"
