#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write —
# the Go build cache, the binary, span dumps of traced runs — goes under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out XDG_CONFIG_HOME=$out/config
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false
go -C perfbench build -o "$out/perfbench" .
# Freed heap pages go back to the OS with MADV_FREE instead of MADV_DONTNEED,
# so a boot reuses the pages the previous unit's kernels freed instead of
# faulting them in again. Page faults in a virtual machine swing with host
# load, and they made set-up the noisiest figure (README.md, "Noise").
export GODEBUG=madvdontneed=0
exec "$out/perfbench" -out "$out" "$@"
