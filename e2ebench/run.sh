#!/usr/bin/env bash
# Builds wloptd, wloptr and the e2ebench program from the checkout this is
# run from (the repository root), then runs e2ebench with the given
# arguments:
#
#   bash e2ebench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays under .bench_build/ in the checkout: the Go
# build cache and configuration, the binaries, daemon logs and stores
# (removed after each run) and the traced run's span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

go build -o "$out/bin/" ./cmd/wloptd ./cmd/wloptr
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" --bin "$out/bin" --work "$out" "$@"
