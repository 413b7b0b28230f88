#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash campaignbench/run.sh --workload dyn-daily --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write lands under .bench_build/ at the
# root: the Go build cache, the binary, checkpoint scratch dirs and span
# files. See campaignbench/README.md.
set -euo pipefail
source "$(dirname "${BASH_SOURCE[0]}")/env.sh"

(cd "$root/campaignbench" && go build -trimpath -o "$work/campaignbench" .) >&2
exec "$work/campaignbench" --work "$work" "$@"
