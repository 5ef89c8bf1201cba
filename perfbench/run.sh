#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with
# every argument passed through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fetch-scan --seed 1 --seconds 30 --trace 0
#
# The build cache, temporary files and the binary all stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

(
	cd "$src"
	env GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go" \
		HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
		GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
