#!/usr/bin/env bash
# Builds the benchmark and vrio-experiments from this checkout's source, then
# runs the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload wire-udp --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --compare old-results/ new-results/
#
# Everything the build writes (binaries, Go build cache, temporary files)
# stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" .
go -C "$root/perfbench" build -o "$out/vrio-experiments" vrio/cmd/vrio-experiments
exec "$out/perfbench" --vx "$out/vrio-experiments" "$@"
