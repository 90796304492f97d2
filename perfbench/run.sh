#!/usr/bin/env bash
# Builds the simulator daemon and the benchmark program from source into
# .bench_build/ at the checkout root, then runs one workload:
#
#   bash perfbench/run.sh --workload seq-demand --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache included) stays under
# .bench_build/, and the Go toolchain is pinned to the local one with the
# module proxy off, so a build never reaches the network.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off CGO_ENABLED=0
(cd "$root" && go build -o "$out/simd" ./cmd/simd) >&2
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" -simd "$out/simd" "$@"
