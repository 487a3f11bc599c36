#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. The build cache and the binary live in
# .bench_build/ (override with CARGO_TARGET_DIR), so nothing is written
# outside the checkout and later runs only relink when a source changed.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found in $root)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
