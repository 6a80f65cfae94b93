#!/usr/bin/env bash
# Builds sliccd, sliccworker and perfbench from source, then runs perfbench
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-sse --seed 1 --seconds 15 --trace 0
#
# Every build output, Go cache and temporary file stays under .bench_build in
# the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/sliccd" ]]; then
	echo "perfbench: run from the root of a slicc checkout" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off

go build -o "$build/bin/" ./cmd/sliccd ./cmd/sliccworker
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" --bin "$build/bin" --tmp "$build/tmp" "$@"
