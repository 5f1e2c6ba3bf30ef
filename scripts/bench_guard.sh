#!/usr/bin/env sh
# bench_guard.sh — fail when a guarded hot-path benchmark regresses more
# than 25% against the newest committed BENCH_*.json snapshot.
#
# Guarded: BenchmarkResolveSteady (the memory-system fixed point) and
# BenchmarkEngineTick (simulation dispatch) — the two numbers every
# experiment cell multiplies by millions of ticks — plus BenchmarkFleetTick
# (the fleet study's goodput composition: per-job cluster fault replay over
# pre-measured shapes; placement is built outside its timer), plus the
# session server's BenchmarkSessionAdvance and BenchmarkMiddlewareOverhead
# (the kelpd request hot path). The fresh measurement is the minimum of
# -count runs; the gate is cmd/benchguard, which needs no
# installs. benchstat, when already on PATH, additionally prints its
# statistical comparison (report only — the gate stays deterministic).
#
# Usage:
#   scripts/bench_guard.sh            # compare against newest BENCH_*.json
#   BENCH_BASE=BENCH_x.json scripts/bench_guard.sh
set -eu

cd "$(dirname "$0")/.."

BASE=${BENCH_BASE:-$(ls BENCH_*.json 2>/dev/null | sort | tail -1 || true)}
if [ -z "$BASE" ]; then
	echo "bench_guard.sh: no BENCH_*.json baseline committed; nothing to guard" >&2
	exit 0
fi
echo "baseline: $BASE"

RAW=$(mktemp)
OLD=$(mktemp)
trap 'rm -f "$RAW" "$OLD"' EXIT

go test -run='^$' -bench='^BenchmarkResolveSteady$' -count=5 ./internal/memsys | tee "$RAW"
go test -run='^$' -bench='^BenchmarkEngineTick$' -count=5 ./internal/sim | tee -a "$RAW"
go test -run='^$' -bench='^BenchmarkFleetTick$' -count=5 ./internal/fleet | tee -a "$RAW"
go test -run='^$' -bench='^(BenchmarkSessionAdvance|BenchmarkMiddlewareOverhead)$' -count=5 ./internal/httpd | tee -a "$RAW"

if command -v benchstat >/dev/null 2>&1; then
	go run ./cmd/benchguard -baseline "$BASE" -emit-baseline "$OLD"
	benchstat "$OLD" "$RAW" || true
fi

go run ./cmd/benchguard -baseline "$BASE" -bench "$RAW"
