#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it, passing
# every argument through. Run from the repository root:
#
#   perfbench/run.sh --workload hot-keys --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans all go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout. Build messages go to standard error; standard output carries
# only the benchmark's report, whose last line is the JSON result.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/home"

(
	export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
	export HOME=$build/home XDG_CONFIG_HOME=$build/home GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
	go build -C perfbench -trimpath -o "$build/perfbench" .
) >&2

exec "$build/perfbench" --out "$build" "$@"
