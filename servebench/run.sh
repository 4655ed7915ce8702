#!/usr/bin/env bash
# Serving benchmark entry point. Run from the repository root:
#
#   bash servebench/run.sh --workload dim-alternating --seed 1 --seconds 10 --trace 0
#
# Builds `anchor` (./cmd/anchor) and the load client (this directory, its own
# Go module) from source, then hands every argument to the client. All build
# and run state stays under .bench_build/ in the working directory; the go
# command's caches and temporary files are pointed there too, and module
# downloads are disabled (neither module has dependencies).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS= GOAMD64=v1

go build -o "$build/anchor" ./cmd/anchor
(cd "$root/servebench" && go build -o "$build/servebench" .)
exec "$build/servebench" -anchor "$build/anchor" -workdir "$build" "$@"
