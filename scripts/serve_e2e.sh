#!/usr/bin/env bash
# End-to-end check of the inference gateway (`make serve-e2e`): build the
# binaries, generate an eDiaMoND training set, start `kertquery -serve`,
# drive one query twice over HTTP verifying the miss -> hit cache
# transition and that the answer is a summary of at most 4 KB with no
# sample arrays, and confirm the gateway.* serving counters show up in
# /metrics. Exits non-zero on any failed expectation.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
gw_pid=""
cleanup() {
  [ -n "$gw_pid" ] && kill "$gw_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

addr="127.0.0.1:18472"
base="http://$addr"

go build -o "$tmp/kertsim" ./cmd/kertsim
go build -o "$tmp/kertquery" ./cmd/kertquery

"$tmp/kertsim" -system ediamond -n 600 > "$tmp/train.csv"

"$tmp/kertquery" -data "$tmp/train.csv" -model kert -serve -addr "$addr" \
  > "$tmp/gateway.log" 2>&1 &
gw_pid=$!

# Wait for the gateway to come up.
ready=0
for _ in $(seq 1 100); do
  if curl -sf "$base/v1/healthz" > /dev/null 2>&1; then ready=1; break; fi
  sleep 0.1
done
if [ "$ready" != 1 ]; then
  echo "serve-e2e: gateway never became ready" >&2
  cat "$tmp/gateway.log" >&2
  exit 1
fi
echo "serve-e2e: gateway ready on $base"

query='{"service_id":3,"predicted_mean":0.4}'

# First query: a cache miss that returns a real posterior.
curl -sf -D "$tmp/h1" -o "$tmp/b1" -X POST "$base/v1/query/paccel" \
  -H 'Content-Type: application/json' -d "$query"
grep -qi '^X-Kertbn-Cache: miss' "$tmp/h1" || {
  echo "serve-e2e: first query was not a cache miss:" >&2; cat "$tmp/h1" >&2; exit 1; }
grep -q '"response_time"' "$tmp/b1" || {
  echo "serve-e2e: paccel response missing response_time:" >&2; cat "$tmp/b1" >&2; exit 1; }
# The distribution travels as its summary (ladder + histogram), never as
# raw samples.
size=$(wc -c < "$tmp/b1")
[ "$size" -le 4096 ] || {
  echo "serve-e2e: paccel body is $size B, want <= 4096" >&2; exit 1; }
grep -q '"quantiles"' "$tmp/b1" || {
  echo "serve-e2e: paccel response missing quantiles:" >&2; cat "$tmp/b1" >&2; exit 1; }
if grep -q '"support"' "$tmp/b1"; then
  echo "serve-e2e: paccel response still carries a support array" >&2; exit 1
fi
echo "serve-e2e: paccel body is a $size B summary"

# Second identical query: a cache hit with a byte-identical body.
curl -sf -D "$tmp/h2" -o "$tmp/b2" -X POST "$base/v1/query/paccel" \
  -H 'Content-Type: application/json' -d "$query"
grep -qi '^X-Kertbn-Cache: hit' "$tmp/h2" || {
  echo "serve-e2e: second query was not a cache hit:" >&2; cat "$tmp/h2" >&2; exit 1; }
cmp -s "$tmp/b1" "$tmp/b2" || {
  echo "serve-e2e: cached body differs from the original" >&2; exit 1; }
echo "serve-e2e: miss -> hit with byte-identical bodies"

# Error semantics: malformed JSON is a 400, unknown node a 404.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/v1/query/paccel" -d '{"service_id":')
[ "$code" = 400 ] || { echo "serve-e2e: malformed body gave $code, want 400" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/v1/query/posterior" -d '{"target":"nope"}')
[ "$code" = 404 ] || { echo "serve-e2e: unknown node gave $code, want 404" >&2; exit 1; }

# The serving stack's own metrics are live on the same port.
curl -sf "$base/metrics" > "$tmp/metrics.json"
for metric in \
  'gateway.route.paccel.requests' \
  'gateway.result_cache.hits' \
  'gateway.coalesce.executions'; do
  grep -q "\"$metric\"" "$tmp/metrics.json" || {
    echo "serve-e2e: /metrics missing $metric" >&2; exit 1; }
done
echo "serve-e2e: gateway.* counters present in /metrics"
echo "serve-e2e: OK"
