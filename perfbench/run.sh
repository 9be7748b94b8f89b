#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every build artifact, cache and data directory stays under
# .bench_build/ there:
#
#   bash perfbench/run.sh --workload feed --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

# The build fails (non-zero exit, no result line) when the repository
# sources are missing next to perfbench/.
(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
