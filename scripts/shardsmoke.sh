#!/usr/bin/env bash
# shardsmoke.sh — the sharded driver end to end at the process level and
# at meaningful scale: run each campaign binary unsharded and with
# -shards 4 (the shards run one after another in one process), and
# demand the merged sharded report be identical to the unsharded one.
#
# Usage:
#   scripts/shardsmoke.sh            # defaults: 100k-domain dpsmeasure,
#                                    # 20k-domain rrscan
#
# Environment:
#   SMOKE_SITES     dpsmeasure population (default 100000)
#   SMOKE_DAYS      dpsmeasure campaign days (default 3)
#   SMOKE_RR_SITES  rrscan population (default 20000)
#   SMOKE_RR_WEEKS  rrscan scan weeks (default 2)
#   SMOKE_SHARDS    shard count for the sharded legs (default 4)
#
# Three report regions legitimately differ between layouts and are
# scrubbed before the diff:
#   - timing/progress headers ("building world", "campaign done", ...);
#   - the fault-tolerance summary: shared-infra queries (TLD referrals,
#     nameserver discovery) are issued once per shard world, so raw
#     query tallies scale with the shard count even though every
#     per-domain answer is identical;
#   - rrscan's Fig. 7 per-PoP load spread, for the same reason — load
#     *distribution* depends on query layout, content does not.
# Everything else — every figure, table, detection count, exposure row —
# must match byte for byte.
set -euo pipefail
cd "$(dirname "$0")/.."

sites="${SMOKE_SITES:-100000}"
days="${SMOKE_DAYS:-3}"
rr_sites="${SMOKE_RR_SITES:-20000}"
rr_weeks="${SMOKE_RR_WEEKS:-2}"
shards="${SMOKE_SHARDS:-4}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

scrub() {
  sed '/^Fault tolerance summary/,/sidelined nameservers/d; /^Fig\. 7 /,$d' \
    | grep -v -e 'building world' -e 'world ready in' \
              -e 'campaign over' -e 'campaign done' \
    | awk 'NF{found=1} found'
}

timed() { # timed <label> <outfile> <cmd...>
  local label="$1" out="$2"
  shift 2
  local t0 t1
  t0=$(date +%s)
  "$@" > "$out"
  t1=$(date +%s)
  echo ">> $label: $((t1 - t0))s wall" >&2
}

go build -o "$work/dpsmeasure" ./cmd/dpsmeasure
go build -o "$work/rrscan" ./cmd/rrscan

timed "dpsmeasure $sites sites, 1 shard" "$work/dm1.txt" \
  "$work/dpsmeasure" -sites "$sites" -days "$days"
timed "dpsmeasure $sites sites, $shards shards" "$work/dmN.txt" \
  "$work/dpsmeasure" -sites "$sites" -days "$days" -shards "$shards" \
  -checkpoint-dir "$work/ckpt"
du -sk "$work"/ckpt/shard-* | sed 's/^/>> checkpoint KiB: /' >&2
diff <(scrub < "$work/dm1.txt") <(scrub < "$work/dmN.txt")
echo "dpsmeasure: merged $shards-shard report == unsharded report"

timed "rrscan $rr_sites sites, 1 shard" "$work/rr1.txt" \
  "$work/rrscan" -sites "$rr_sites" -weeks "$rr_weeks" -warmup 7
timed "rrscan $rr_sites sites, $shards shards" "$work/rrN.txt" \
  "$work/rrscan" -sites "$rr_sites" -weeks "$rr_weeks" -warmup 7 \
  -shards "$shards"
diff <(scrub < "$work/rr1.txt") <(scrub < "$work/rrN.txt")
echo "rrscan: merged $shards-shard report == unsharded report"
