#!/usr/bin/env bash
# Builds perfbench from source and runs it with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload warm --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files,
# the binary, persist directories and traces all stay under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are required)" >&2
	exit 1
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd perfbench && go build -o "$out/bin/perfbench" .)

# The stamp names the commit, or a digest of the Go sources outside git.
if [[ "$(git rev-parse --show-toplevel 2>/dev/null)" == "$PWD" ]]; then
	commit=$(git rev-parse --short=12 HEAD)
else
	commit="src-$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)"
fi
export PERFBENCH_COMMIT="$commit"

exec "$out/bin/perfbench" "$@"
