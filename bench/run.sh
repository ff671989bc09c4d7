#!/bin/sh
# Builds the campaign benchmark from source and runs it with the given
# arguments, e.g. from the repository root:
#
#	bash bench/run.sh --workload fig15-full --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary and the
# benchmark's work and output directories. The build needs no network.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$(dirname "$0")" && go build -o "$out/morrigan-bench" .)
exec "$out/morrigan-bench" -outdir "$out/out" "$@"
