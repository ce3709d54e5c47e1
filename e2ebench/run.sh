#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it.
# Run from the repository root:
#
#	bash e2ebench/run.sh --workload live --seed 1 --seconds 15 --trace 0
#
# Build cache, binary, traces and work-count records all stay under
# .bench_build/ in the current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry inside too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -trimpath -o "$out/pfg-e2ebench" .)
exec "$out/pfg-e2ebench" -out "$out" "$@"
