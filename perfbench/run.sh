#!/usr/bin/env bash
# Builds aggserve and the benchmark from the checkout's sources, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# the Go build cache included.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/aggserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/aggserve and perfbench/ must be there)" >&2
	exit 2
fi
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters and env file
# inside the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS=

go build -o "$build/bin/aggserve" ./cmd/aggserve
(cd perfbench && go build -o "$build/bin/perfbench" .)

# Outside a git checkout the sources stand in for the commit: a digest of
# every Go source and module file.
commit=$(git rev-parse --short HEAD 2>/dev/null) ||
	commit=src-$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)
exec "$build/bin/perfbench" --bin "$build/bin" --work "$build/perfbench" --benchmark "$root/BENCHMARK.json" --commit "$commit" "$@"
