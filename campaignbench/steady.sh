#!/usr/bin/env bash
# Builds and runs the steadiness check (steady/main.go) from the
# repository root, e.g.:
#
#   bash campaignbench/steady.sh -runs 10
#
# It runs the benchmark through BENCHMARK.json's command, so every run
# builds and measures exactly as the benchmark does.
set -euo pipefail
source "$(dirname "${BASH_SOURCE[0]}")/env.sh"

(cd "$root/campaignbench" && go build -trimpath -o "$work/steady" ./steady) >&2
exec "$work/steady" "$@"
