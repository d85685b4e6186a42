#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments in
# the benchmark's own directory, the same directory `go run .` runs in: a
# relative path given to -out or -compare, and expect/ for -update-expect,
# are read there. Call it from the repository root, for example:
#
#   bash perfbench/run.sh --workload contended --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write — the Go build cache, the binary,
# temporary artifact directories — stays under $CARGO_TARGET_DIR, or
# .bench_build in the current directory when that is unset.
set -euo pipefail

src=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0
mkdir -p "$TMPDIR"

cd "$src"
go build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
