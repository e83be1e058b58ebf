#!/usr/bin/env bash
# Builds the reproduction benchmark from source and runs it with the
# given flags (see README.md). Run it from the repository root. The build
# cache, the binary and the sweeps' temporary caches all stay under
# .bench_build/ in the working directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
go -C scripts/bench build -o "$out/bench" .
exec "$out/bench" "$@"
