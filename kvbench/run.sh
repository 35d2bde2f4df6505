#!/usr/bin/env bash
# Builds kvbench from this checkout's sources and runs it from the
# checkout root:
#
#   bash kvbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs, the Go build cache and the benchmark's WAL data all go
# under $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod XDG_CONFIG_HOME=$out/config
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off
(cd "$here" && go build -trimpath -buildvcs=false -o "$out/kvbench" .)

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
KVBENCH_COMMIT=$commit KVBENCH_WORKDIR=$out exec "$out/kvbench" "$@"
