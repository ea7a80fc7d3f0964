#!/usr/bin/env bash
# Builds classminerd and the perfbench load generator from this checkout, then runs
# the benchmark. Every build artefact, cache and scratch file stays under
# the checkout (in $CARGO_TARGET_DIR, default .bench_build).
#
#   bash perfbench/run.sh --workload search --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --agree --runs 10       # self-agreement mode
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
export GOPROXY=off GOWORK=off GOENV=off TMPDIR=$out/gotmp

go build -o "$out/classminerd" ./cmd/classminerd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/classminerd" -work "$out/perfbench-work" "$@"
