#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Everything the toolchain writes (build cache, module
# cache, telemetry, temporary files, the binary) stays under .bench_build
# in the checkout; the benchmark itself writes only under benchmark/out.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
env GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
    XDG_CONFIG_HOME="$build/config" GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off \
    go build -o "$build/qpgc-benchmark" . >&2
exec "$build/qpgc-benchmark" "$@"
