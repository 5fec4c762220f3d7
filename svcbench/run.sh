#!/usr/bin/env bash
# Builds streamd from this tree and the svcbench program, then runs one
# benchmark workload:
#
#   bash svcbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# run's scratch files stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/streamd" || ! -f "$root/svcbench/go.mod" ]]; then
	echo "svcbench: run from the repository root (needs go.mod, cmd/streamd and svcbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -o "$out/bin/streamd" ./cmd/streamd
(cd svcbench && go build -o "$out/bin/svcbench" .)
exec "$out/bin/svcbench" -streamd "$out/bin/streamd" -work "$out/work" "$@"
