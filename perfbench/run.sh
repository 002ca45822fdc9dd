#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it. Run it from the
# repository root; every argument is passed on:
#
#   bash perfbench/run.sh --workload wire-stat-heavy --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and traced-run dumps stay under .bench_build/
# in the working directory; nothing outside the checkout is read or written
# besides the Go toolchain itself.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .) >&2
if [ -e .git ]; then
	PERFBENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi
exec "$out/perfbench" --out "$out" "$@"
