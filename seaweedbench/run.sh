#!/usr/bin/env bash
# Builds the Seaweed benchmark from source and runs it.
#
#   bash seaweedbench/run.sh --workload steady|serve|churn --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, span files) goes under .bench_build/ in
# the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"

# Keep the toolchain's caches, config, telemetry and temp files inside the
# checkout.
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export CGO_ENABLED=0

(cd "$root/seaweedbench" && go build -o "$out/seaweedbench" .) >&2
exec "$out/seaweedbench" "$@"
