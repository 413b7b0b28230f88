#!/usr/bin/env bash
# followsmoke.sh — continuous monitoring end to end at the process level:
# `rrserve -follow` starts over an empty checkpoint directory, a
# `dpsmeasure -follow` daemon starts sealing days into it, and the server
# must surface each sealed day through the HTTP API as the campaign runs.
# SIGTERM then drains the writer (finish the in-flight day, checkpoint,
# print the report) and the follow server must converge on the final day
# within one poll cycle. Finally a fresh batch campaign over the same
# number of days is served side by side and the two servers' answers —
# stats, the full population, a domain looked up live and its history —
# must be byte-identical, the process-level face of the append==batch law.
# Last, `rrscan -follow` runs the same daemon loop (cmdutil.RunFollow)
# for a few rounds: it must drain on -max-days, and a plain rrserve
# must load what it left as a residual campaign.
#
# Environment:
#   SMOKE_SITES  campaign population (default 500)
#   SMOKE_DAYS   days to observe before draining the writer (default 5)
set -euo pipefail
cd "$(dirname "$0")/.."

sites="${SMOKE_SITES:-500}"
want_days="${SMOKE_DAYS:-5}"
work="$(mktemp -d)"
writer_pid=""
follow_pid=""
batch_pid=""
cleanup() {
  for pid in "$writer_pid" "$follow_pid" "$batch_pid"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/dpsmeasure" ./cmd/dpsmeasure
go build -o "$work/rrscan" ./cmd/rrscan
go build -o "$work/rrserve" ./cmd/rrserve

wait_addr() { # wait_addr <logfile> <pid-var-value>
  local log="$1" pid="$2" a=""
  for i in $(seq 1 100); do
    a="$(sed -n 's#.*serving on http://##p' "$log" | head -1)"
    [ -n "$a" ] && break
    kill -0 "$pid" 2>/dev/null || { cat "$log" >&2; return 1; }
    sleep 0.1
  done
  [ -n "$a" ] || { echo "server never came up" >&2; cat "$log" >&2; return 1; }
  echo "$a"
}

days_collected() { # days_collected <addr> -> 0 when no epoch yet (503)
  curl -s "http://$1/v1/stats" | python3 -c '
import json, sys
try:
    print(json.load(sys.stdin)["dynamics"]["days_collected"])
except Exception:
    print(0)'
}

# The follow server comes up first, over a directory with no sealed
# rounds at all: liveness must work, data endpoints must answer 503.
mkdir -p "$work/ckpt"
"$work/rrserve" -addr 127.0.0.1:0 -checkpoint-dir "$work/ckpt" \
  -follow -poll 100ms -drain 5s > "$work/follow.log" 2>&1 &
follow_pid=$!
faddr="$(wait_addr "$work/follow.log" "$follow_pid")"
echo ">> rrserve -follow up at $faddr (empty directory)"
grep -q 'no sealed rounds yet' "$work/follow.log" || \
  { echo "FAIL: follow server did not report an empty directory"; cat "$work/follow.log"; exit 1; }
for probe in "200 /healthz" "503 /v1/stats" "503 /v1/domains"; do
  want="${probe%% *}" path="${probe#* }"
  got="$(curl -s -o /dev/null -w '%{http_code}' "http://$faddr$path")"
  [ "$got" = "$want" ] || { echo "FAIL: GET $path -> $got, want $want"; exit 1; }
  echo "ok: GET $path -> $got"
done

# The live campaign: no -max-days, so only SIGTERM ends it. The
# 300ms gap between seals is several server poll cycles wide, which is
# what lets a shell loop observe the epochs advancing one by one.
"$work/dpsmeasure" -sites "$sites" -follow -follow-interval 300ms \
  -checkpoint-dir "$work/ckpt" -checkpoint-every 2 \
  > "$work/writer.out" 2> "$work/writer.err" &
writer_pid=$!
echo ">> dpsmeasure -follow sealing days (pid $writer_pid)"

seen="$work/seen-days"
: > "$seen"
deadline=$((SECONDS + 120))
while :; do
  d="$(days_collected "$faddr")"
  [ "$d" -gt 0 ] && echo "$d" >> "$seen"
  [ "$d" -ge "$want_days" ] && break
  kill -0 "$writer_pid" 2>/dev/null || \
    { echo "FAIL: writer died early"; cat "$work/writer.err"; exit 1; }
  [ "$SECONDS" -lt "$deadline" ] || \
    { echo "FAIL: follow server never reached $want_days days"; cat "$work/follow.log"; exit 1; }
  sleep 0.05
done
distinct="$(sort -un "$seen" | wc -l)"
[ "$distinct" -ge 3 ] || \
  { echo "FAIL: only $distinct distinct epochs observed live — server is not tailing"; exit 1; }
echo "ok: watched the epoch advance through $distinct states up to day $((d - 1))"

# Look up the top apex twice while the writer still runs, so the follow
# server stores its bodies (an epoch keeps an answer on its repeat) at
# an epoch older than the final one; the byte comparison below then
# shows the stored bodies did not outlive their epoch.
apex="$(curl -s "http://$faddr/v1/domains?limit=1" | python3 -c '
import json, sys
d = json.load(sys.stdin)
assert d["total"] > 0, "follow server has no domains"
print(d["domains"][0]["apex"])')"
for path in "/v1/domain/$apex" "/v1/domain/$apex" "/v1/domain/$apex/history" "/v1/domain/$apex/history"; do
  got="$(curl -s -o /dev/null -w '%{http_code}' "http://$faddr$path")"
  [ "$got" = 200 ] || { echo "FAIL: live GET $path -> $got, want 200"; exit 1; }
done
echo "ok: live lookups of $apex answered"

# SIGTERM drains the writer: finish the in-flight day, checkpoint, report.
kill -TERM "$writer_pid"
wait "$writer_pid" || { echo "FAIL: writer exited nonzero"; cat "$work/writer.err"; exit 1; }
writer_pid=""
grep -q 'checkpointing and draining' "$work/writer.err" || \
  { echo "FAIL: no drain line in writer stderr"; cat "$work/writer.err"; exit 1; }
final_days="$(grep -c '^day .* sealed' "$work/writer.out")"
[ "$final_days" -ge "$want_days" ] || \
  { echo "FAIL: writer sealed only $final_days days"; exit 1; }
echo "ok: writer drained cleanly after sealing $final_days days"

# Every sealed day must be served within one poll cycle of the drain;
# 5s here is fifty cycles of headroom for a loaded runner.
deadline=$((SECONDS + 5))
while :; do
  d="$(days_collected "$faddr")"
  [ "$d" = "$final_days" ] && break
  [ "$SECONDS" -lt "$deadline" ] || \
    { echo "FAIL: follow server stuck at day $((d - 1)), writer sealed $final_days days"; exit 1; }
  sleep 0.1
done
echo "ok: follow server converged on all $final_days sealed days"

# Append==batch at the process level: a fresh batch campaign over the
# same population, seed, and day count, served by a plain (non-follow)
# rrserve, must answer every query byte-identically.
echo ">> batch reference: $sites sites, $final_days days"
"$work/dpsmeasure" -sites "$sites" -days "$final_days" \
  -checkpoint-dir "$work/batch" -checkpoint-every 2 > "$work/batch.out"
"$work/rrserve" -addr 127.0.0.1:0 -checkpoint-dir "$work/batch" \
  -drain 5s > "$work/batch.log" 2>&1 &
batch_pid=$!
baddr="$(wait_addr "$work/batch.log" "$batch_pid")"
echo ">> batch rrserve up at $baddr"

for path in /v1/stats "/v1/domains?limit=$sites" "/v1/domain/$apex" "/v1/domain/$apex/history"; do
  curl -s "http://$faddr$path" > "$work/follow.body"
  curl -s "http://$baddr$path" > "$work/batch.body"
  diff -u "$work/batch.body" "$work/follow.body" > /dev/null || \
    { echo "FAIL: GET $path differs between follow and batch servers"; \
      diff -u "$work/batch.body" "$work/follow.body" | head -40; exit 1; }
  echo "ok: GET $path identical on both servers"
done

# Both servers must TERM out cleanly.
for pair in "follow_pid follow.log" "batch_pid batch.log"; do
  var="${pair%% *}" log="${pair#* }"
  pid="${!var}"
  kill -TERM "$pid"
  wait "$pid" || { echo "FAIL: rrserve ($log) exited nonzero"; cat "$work/$log"; exit 1; }
  printf -v "$var" ''
  grep -q 'bye' "$work/$log" || \
    { echo "FAIL: no clean shutdown line in $log"; cat "$work/$log"; exit 1; }
done
echo "ok: both servers drained on SIGTERM"

# The residual campaign shares the follow loop: four rounds, then the
# -max-days drain, then the directory loads as a residual campaign.
echo ">> rrscan -follow -max-days 4"
"$work/rrscan" -sites 300 -warmup 7 -workers 1 -follow -max-days 4 \
  -checkpoint-dir "$work/res" > "$work/res.out" 2> "$work/res.err" || \
  { echo "FAIL: rrscan -follow exited nonzero"; cat "$work/res.err"; exit 1; }
grep -q 'rrscan: -max-days 4 reached; checkpointing and draining' "$work/res.err" || \
  { echo "FAIL: no drain line in rrscan stderr"; cat "$work/res.err"; exit 1; }
"$work/rrserve" -addr 127.0.0.1:0 -checkpoint-dir "$work/res" \
  -drain 5s > "$work/res.log" 2>&1 &
batch_pid=$!
raddr="$(wait_addr "$work/res.log" "$batch_pid")"
kind="$(curl -s "http://$raddr/v1/stats" | python3 -c 'import json, sys; print(json.load(sys.stdin)["kind"])')"
[ "$kind" = "residual" ] || { echo "FAIL: /v1/stats kind $kind, want residual"; exit 1; }
kill -TERM "$batch_pid"
wait "$batch_pid" || { echo "FAIL: rrserve (res.log) exited nonzero"; cat "$work/res.log"; exit 1; }
batch_pid=""
echo "ok: rrscan -follow drained and its directory serves a residual campaign"
echo "followsmoke: all checks passed"
