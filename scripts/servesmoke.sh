#!/usr/bin/env bash
# servesmoke.sh — the lookup service end to end at the process level:
# run a short checkpointing campaign, point rrserve at the directory,
# and drive the HTTP API the way a client would — authorized and not,
# known apex and not, inside and outside the rate budget — asserting
# status codes and JSON shape: single-line bodies, and a list page that
# heads the full list with a total equal to the store's apex count.
# Also checks that static mode refuses a directory with nothing sealed,
# and that static and -follow servers over the finished directory
# agree. Finishes with a graceful TERM and checks the server drained
# cleanly.
#
# Environment:
#   SMOKE_SITES  campaign population (default 2000)
#   SMOKE_DAYS   campaign days (default 5)
set -euo pipefail
cd "$(dirname "$0")/.."

sites="${SMOKE_SITES:-2000}"
days="${SMOKE_DAYS:-5}"
work="$(mktemp -d)"
key="smoke-key-1"
server_pid=""
follow_pid=""
cleanup() {
  for pid in "$server_pid" "$follow_pid"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/dpsmeasure" ./cmd/dpsmeasure
go build -o "$work/rrserve" ./cmd/rrserve

echo ">> campaign: $sites sites, $days days, checkpointing"
"$work/dpsmeasure" -sites "$sites" -days "$days" \
  -checkpoint-dir "$work/ckpt" -checkpoint-every 2 > /dev/null
ls -l "$work/ckpt" >&2

# Static mode needs a sealed round: an existing directory with nothing
# sealed yet must fail at startup, naming the directory.
mkdir "$work/empty"
status=0
"$work/rrserve" -addr 127.0.0.1:0 -checkpoint-dir "$work/empty" \
  > /dev/null 2> "$work/empty.err" || status=$?
[ "$status" = 1 ] || { echo "FAIL: rrserve over an empty directory exited $status, want 1"; exit 1; }
grep -qF "$work/empty" "$work/empty.err" || \
  { echo "FAIL: empty-directory error does not name the directory"; cat "$work/empty.err"; exit 1; }
echo "ok: rrserve over an empty directory exits 1 naming it"

# -rate 5 -burst 8: small enough that a tight request loop trips 429,
# big enough that the scripted checks below never do.
"$work/rrserve" -addr 127.0.0.1:0 -checkpoint-dir "$work/ckpt" \
  -api-keys "$key,other-key" -rate 5 -burst 8 -drain 5s \
  > "$work/serve.log" 2>&1 &
server_pid=$!

addr=""
for i in $(seq 1 100); do
  addr="$(sed -n 's#.*serving on http://##p' "$work/serve.log" | head -1)"
  [ -n "$addr" ] && break
  kill -0 "$server_pid" 2>/dev/null || { cat "$work/serve.log"; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] || { echo "server never came up"; cat "$work/serve.log"; exit 1; }
echo ">> rrserve up at $addr"

code() { # code <want> <path> [curl args...]
  local want="$1" path="$2"
  shift 2
  local got
  got="$(curl -s -o /dev/null -w '%{http_code}' "$@" "http://$addr$path")"
  if [ "$got" != "$want" ]; then
    echo "FAIL: GET $path -> $got, want $want"
    exit 1
  fi
  echo "ok: GET $path -> $got"
}
auth=(-H "Authorization: Bearer $key")

# Liveness needs no key; everything else does.
code 200 /healthz
code 401 /v1/stats
code 401 /v1/stats -H "Authorization: Bearer wrong-key"
code 200 /v1/stats "${auth[@]}"
code 200 /v1/domains "${auth[@]}"
code 404 /v1/domain/never-seen.example "${auth[@]}"
code 400 "/v1/domains?limit=bogus" "${auth[@]}"

# Apexes are seed-random, so discover one through the API itself, then
# assert the domain and history answers' shape.
curl -s "${auth[@]}" "http://$addr/v1/domains?limit=3" > "$work/domains.json"
curl -s "${auth[@]}" "http://$addr/v1/stats" > "$work/stats.json"
apex="$(python3 - "$work/domains.json" <<'PYEOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["total"] > 0, "no domains served"
assert len(d["domains"]) == 3, f'limit ignored: {len(d["domains"])}'
print(d["domains"][0]["apex"])
PYEOF
)"
echo ">> probing apex $apex"
curl -s "${auth[@]}" "http://$addr/v1/domain/$apex" > "$work/domain.json"
curl -s "${auth[@]}" "http://$addr/v1/domain/$apex/history" > "$work/history.json"
total="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["total"])' "$work/domains.json")"
curl -s "${auth[@]}" "http://$addr/v1/domains?limit=$total" > "$work/all.json"

# A list page is the head of the full rank-ordered list, its total is
# the store's apex count, and every body is a single line.
python3 - "$work" <<'PYEOF'
import json, os, sys
work = sys.argv[1]
page, full, stats = (json.load(open(os.path.join(work, f))) for f in ("domains.json", "all.json", "stats.json"))
assert page["total"] == full["total"] == stats["store"]["apexes"], \
    f'total {page["total"]}/{full["total"]}, store.apexes {stats["store"]["apexes"]}'
assert len(full["domains"]) == full["total"], f'limit=total lists {len(full["domains"])} of {full["total"]}'
assert page["domains"] == full["domains"][:3], "limit=3 is not the head of limit=total"
for f in ("domains.json", "all.json", "stats.json", "domain.json", "history.json"):
    raw = open(os.path.join(work, f), "rb").read()
    assert raw.endswith(b"\n") and raw.count(b"\n") == 1, f"{f} is not a single line"
print(f'ok: limit=3 heads limit={full["total"]}, total matches store.apexes, bodies are single lines')
PYEOF
python3 - "$work/domain.json" "$work/history.json" "$work/stats.json" "$apex" <<'PYEOF'
import json, sys
domain, history, stats = (json.load(open(p)) for p in sys.argv[1:4])
apex = sys.argv[4]
assert domain["apex"] == apex, f'asked {apex}, got {domain["apex"]}'
assert "day" in domain and "live" in domain, f"domain shape: {sorted(domain)}"
if "verdict" in domain:
    assert domain["verdict"]["status"] in ("ON", "OFF", "NONE"), domain["verdict"]
assert history["apex"] == apex
assert history["record_versions"], "history has no record versions"
assert stats["kind"] == "dynamics", stats["kind"]
assert stats["store"]["apexes"] > 0, stats["store"]
assert stats["dynamics"]["population"] > 0, stats["dynamics"]
print(f'ok: domain/history/stats shape (day {domain["day"]}, '
      f'{stats["store"]["apexes"]} apexes)')
PYEOF

# Static and -follow rrserve attach to the directory the same way, so
# over a finished campaign they must report the same campaign day and
# serve the same stats.
"$work/rrserve" -addr 127.0.0.1:0 -checkpoint-dir "$work/ckpt" -follow -poll 100ms \
  -api-keys "$key" -drain 5s > "$work/follow.log" 2>&1 &
follow_pid=$!
faddr=""
for i in $(seq 1 100); do
  faddr="$(sed -n 's#.*serving on http://##p' "$work/follow.log" | head -1)"
  [ -n "$faddr" ] && break
  kill -0 "$follow_pid" 2>/dev/null || { cat "$work/follow.log"; exit 1; }
  sleep 0.1
done
[ -n "$faddr" ] || { echo "follow server never came up"; cat "$work/follow.log"; exit 1; }
campaign_day() { sed -n 's/.* campaign, day \([0-9]*\),.*/\1/p' "$1" | head -1; }
sday="$(campaign_day "$work/serve.log")" fday="$(campaign_day "$work/follow.log")"
[ -n "$sday" ] && [ "$sday" = "$fday" ] || \
  { echo "FAIL: static day '$sday', follow day '$fday'"; cat "$work/serve.log" "$work/follow.log"; exit 1; }
curl -s "${auth[@]}" "http://$faddr/v1/stats" > "$work/follow-stats.json"
cmp -s "$work/stats.json" "$work/follow-stats.json" || \
  { echo "FAIL: /v1/stats differs between static and -follow"; diff "$work/stats.json" "$work/follow-stats.json" | head -20; exit 1; }
kill -TERM "$follow_pid"
wait "$follow_pid" || { echo "FAIL: follow server exited nonzero"; cat "$work/follow.log"; exit 1; }
follow_pid=""
echo "ok: static and -follow serve day $sday with identical /v1/stats"

# Hammer one key past its bucket: 30 back-to-back requests against
# budget 8+ must trip 429 at least once, and the 429 must carry
# Retry-After. The other key's bucket is untouched.
saw429=0
for i in $(seq 1 30); do
  got="$(curl -s -o /dev/null -w '%{http_code}' "${auth[@]}" "http://$addr/v1/stats")"
  if [ "$got" = "429" ]; then saw429=1; break; fi
done
[ "$saw429" = 1 ] || { echo "FAIL: 30 rapid requests never rate-limited"; exit 1; }
curl -s -D "$work/429.hdr" -o /dev/null "${auth[@]}" "http://$addr/v1/stats" || true
grep -qi '^retry-after: [0-9]' "$work/429.hdr" || \
  { echo "FAIL: 429 without Retry-After"; cat "$work/429.hdr"; exit 1; }
echo "ok: rate limit trips with Retry-After"
code 200 /v1/stats -H "Authorization: Bearer other-key"

# Request metrics must have counted all of the above.
curl -s -H "Authorization: Bearer other-key" \
  "http://$addr/metrics" > "$work/metrics.json"
python3 - "$work/metrics.json" <<'PYEOF'
import json, sys
d = json.load(open(sys.argv[1]))
c = d["snapshot"]["counters"]
for name in ("serve.requests.stats", "serve.requests.domain",
             "serve.auth.rejected", "serve.ratelimited", "serve.domain.hit"):
    if c.get(name, 0) == 0:
        sys.exit(f"counter {name} is zero or absent")
print(f"ok: request metrics counted ({len(c)} counters)")
PYEOF

kill -TERM "$server_pid"
wait "$server_pid" || { echo "FAIL: server exited nonzero"; cat "$work/serve.log"; exit 1; }
server_pid=""
grep -q 'bye' "$work/serve.log" || { echo "FAIL: no clean shutdown line"; cat "$work/serve.log"; exit 1; }
echo "ok: graceful shutdown"
echo "servesmoke: all checks passed"
