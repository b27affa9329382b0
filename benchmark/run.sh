#!/usr/bin/env bash
# Builds prever-server and the benchmark from the source tree around this
# directory, then runs the benchmark with the given arguments:
#
#   bash benchmark/run.sh --workload ycsb-a --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build caches, binaries, reports and
# spans all go under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/prever-server" ]; then
	echo "benchmark: run from the repository root (no go.mod or cmd/prever-server in $root)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
# The go command keeps telemetry under the user config directory.
export XDG_CONFIG_HOME="$build/config"

if ! go build -o "$build/bin/prever-server" ./cmd/prever-server >&2; then
	echo "benchmark: building prever-server failed" >&2
	exit 1
fi
if ! (cd "$here" && go build -o "$build/bin/benchmark" .) >&2; then
	echo "benchmark: building the benchmark failed" >&2
	exit 1
fi
exec "$build/bin/benchmark" -root "$root" -server "$build/bin/prever-server" "$@"
