#!/usr/bin/env bash
# Builds the benchmark harness and the binaries it drives (statsymd,
# tracecheck) from this checkout, then runs the harness. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload thttpd-guided --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root" -o "$out/bin/" ./cmd/statsymd ./cmd/tracecheck
go build -C "$root/perfbench" -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
