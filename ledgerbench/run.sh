#!/usr/bin/env bash
# Builds the ledger benchmark from this checkout's sources and runs it.
#
#   bash ledgerbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, service stores, traces) stays under
# $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gotmp" "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/gotmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/ledgerbench" && go build -o "$out/ledgerbench" .)
exec "$out/ledgerbench" --tmp "$out/tmp" --trace-dir "$out/traces" "$@"
