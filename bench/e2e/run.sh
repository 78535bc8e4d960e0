#!/usr/bin/env bash
# Builds the end-to-end benchmark (bench/e2e, a Go module of its own) from
# the checkout it is run in, then runs it with the given arguments:
#
#   bash bench/e2e/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The build and the run write only
# under $CARGO_TARGET_DIR (default .bench_build): the Go build cache, the
# binary, and the trace files. The build needs no network.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/e2e/go.mod ]]; then
	echo "run.sh: run from the root of an rkranks checkout (go.mod and bench/e2e/go.mod)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"
(cd bench/e2e && go build -o "$build/e2e" .)
exec "$build/e2e" --out "$build/e2e-out" "$@"
