#!/usr/bin/env bash
# Builds marketsim and e2ebench from this checkout and runs e2ebench with
# the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload scan-miss --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ at the
# root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/marketsim" ]]; then
	echo "e2ebench: no marketsim source at $root" >&2
	exit 1
fi
# Go telemetry off: with it on, the go command starts a detached upload
# process that can outlive this script.
mkdir -p "$work/tmp" "$work/xdg/go/telemetry"
echo off >"$work/xdg/go/telemetry/mode"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomod" GOPATH="$work/gopath"
export GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" XDG_CONFIG_HOME="$work/xdg"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOTELEMETRY=off
go -C "$root" build -o "$work/marketsim" ./cmd/marketsim
go -C "$root/e2ebench" build -o "$work/e2ebench" .
exec "$work/e2ebench" -work "$work" "$@"
