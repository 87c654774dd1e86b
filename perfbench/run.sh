#!/usr/bin/env bash
# Builds perfbench from the checkout it sits in and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh -workload sim-lazy-20k -seed 1 -seconds 20 -trace 0
#
# Build outputs, the Go build cache and temporary files all stay under
# .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; the module sources are not here" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry and env file out of $HOME.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
