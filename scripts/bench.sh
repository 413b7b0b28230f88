#!/usr/bin/env bash
# bench.sh — run the resolve-hot-path benchmark suite and emit the
# machine-readable BENCH_resolve.json report the CI bench gate compares
# against the committed baseline.
#
# Usage:
#   scripts/bench.sh [output.json]       # default: BENCH_resolve.json
#
# Environment:
#   BENCH_COUNT     repetitions per benchmark (default 6); benchjson keeps
#                   the best run per metric, damping scheduler noise.
#   BENCH_TIME      -benchtime per repetition (default 500ms; allocs/op is
#                   exact at any length, and min-of-6 at 500ms keeps ns/op
#                   inside the gate's 10% band on a busy runner).
#
# The suite covers the layers under every campaign query: dnsmsg
# encode/decode, the resolver cache + iterate path, the raw fabric
# exchange, the authoritative server's answer memo, the scan loop, a
# collect day's CPU per domain at 1 and 2 workers, and the campaign's
# retained-bytes footprint (the retained-B/domain-day metric from
# BenchmarkDynamicsMemory).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_resolve.json}"
count="${BENCH_COUNT:-6}"
benchtime="${BENCH_TIME:-500ms}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

run() { # run <pkg> <bench-regexp> [extra go test flags...]
  local pkg="$1" pat="$2"
  shift 2
  echo ">> go test -bench='$pat' $* $pkg" >&2
  go test -run='^$' -bench="$pat" -benchmem "$@" "$pkg" | tee -a "$raw" >&2
}

# The zero-alloc contract: cached resolve must stay at 0 allocs/op,
# uncached at <=4 (also asserted in-test by TestResolveAllocBudget).
run ./internal/dnsresolver 'BenchmarkResolve|BenchmarkExchangeDirect' \
  -count="$count" -benchtime="$benchtime"

# The codec under every exchange.
run ./internal/dnsmsg '.' -count="$count" -benchtime="$benchtime"

# The authoritative side of every exchange: a repeated query answered
# from the server's answer memo (0 allocs/op) and one that misses it.
run ./internal/dnsserver 'BenchmarkServeNetBuf' -count="$count" -benchtime="$benchtime"

# The scan loop the campaigns multiply by millions of domain-days.
run . 'BenchmarkScan' -count="$count" -benchtime="$benchtime"

# One purge-and-collect day of the paper-baseline world at 1 and 2
# workers. Informational (outside the gate): cpu-ns/domain shows what the
# second worker costs per domain, i.e. the collect pool's parallel
# efficiency on the machine running it.
run . 'BenchmarkCollectDay' -count=3 -benchtime=20x

# The incremental engine's steady-state day append (daemon mode's
# per-round cost). Quiescent world: allocs/op is deterministic, so the
# gate catches any change that re-touches unchanged records. The
# campaign's own state grows day by day, so a few allocations are spread
# over however many days a run appends; a fixed day count keeps allocs/op
# from depending on the machine's speed.
run ./internal/core/experiment 'BenchmarkAppendDay' \
  -count="$count" -benchtime=200x

# Campaign memory footprint; a single shot is exact (retained bytes are
# measured, not timed) and keeps the suite fast.
run ./internal/core/experiment 'BenchmarkDynamicsMemory' \
  -count=1 -benchtime=1x

go run ./tools/benchjson -o "$out" < "$raw"
echo "wrote $out" >&2
