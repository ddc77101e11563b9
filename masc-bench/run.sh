#!/usr/bin/env bash
# Builds and runs masc-bench from the checkout it lives in. Every file
# the build and the run write stays under <checkout>/.bench_build: the
# Go build cache, temporary build directories, the go command's
# configuration and telemetry (HOME points there), and the stores the
# process-durable workload opens. Arguments pass through unchanged.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build"
mkdir -p "$work/gocache" "$work/tmp" "$work/home"
export HOME="$work/home" XDG_CONFIG_HOME="$work/home/.config" XDG_CACHE_HOME="$work/home/.cache"
export GOCACHE="$work/gocache" TMPDIR="$work/tmp" GOTMPDIR="$work/tmp"
export GOMODCACHE="$work/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
cd "$root/masc-bench"
exec go run -buildvcs=true . -workdir "$work/tmp" "$@"
