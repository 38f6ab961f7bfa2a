#!/usr/bin/env bash
# Builds the capacity benchmark from the checkout's sources and runs it,
# passing every argument through (see capbench/README.md).
#
# All build state (Go build cache, temporary files, go command config)
# lives under .bench_build/ at the checkout root, so nothing is read from
# or written to the user's home directory and no network is used.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$root/capbench" && go build -o "$build/capbench" .)
exec "$build/capbench" "$@"
