#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload fig9-sweep --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache and the toolchain's own configuration
# are kept under .bench_build, so the run reads and writes nothing
# outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS= HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
