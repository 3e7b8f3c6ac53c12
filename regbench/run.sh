#!/usr/bin/env bash
# Builds the benchmark and the results checker from the checkout's own
# sources, then runs the benchmark. Run it from the repository root:
#
#   bash regbench/run.sh --workload single-run --seed 1 --seconds 10 --trace 0
#   bash regbench/run.sh -compare -base DIR -head DIR
#
# Every build artefact, cache and run output stays under .bench_build in
# the checkout (or under $CARGO_TARGET_DIR when that is set).
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/bin" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C regbench build -o "$build/bin/" . regcache/cmd/checkresults
exec "$build/bin/regbench" -root "$root" -workdir "$build" -checkresults "$build/bin/checkresults" "$@"
