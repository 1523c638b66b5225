#!/usr/bin/env bash
# identity.sh BIN OUT — run PR 23's byte-identity commands with the CLIs in
# BIN (built from one commit: go build -o BIN/ ./cmd/...) from the root of
# that commit's checkout, leave every output in OUT and print one sha256
# per output. Run it on the parent and on the change and diff the two
# listings; the host-time trailer, the -json header (jobs/gomaxprocs) and
# the BENCH measured sections are stripped before hashing.
set -euo pipefail
BIN=$(cd "$1" && pwd); mkdir -p "$2"; OUT=$(cd "$2" && pwd)

"$BIN/cedarreport" -q -n 32 -codes QCD,TRACK | grep -v '^report generated in' > "$OUT/report.txt"
"$BIN/cedarsim" -all -n 32 -small -json -faults demo -jobs 1 | jq -cS 'del(.header)' > "$OUT/sim-faulted.json"
"$BIN/cedarsim" -all -n 32 -small -trace "$OUT/sim.trace.json" -metrics "$OUT/sim.metrics.csv" > "$OUT/sim.txt"
"$BIN/judge" -ppt4 -q > "$OUT/judge-ppt4.txt"
for area in smoke latency wide; do
  "$BIN/cedarbench" run -q -config "bench/campaigns/$area.json" -out "$OUT/BENCH_$area.json" > /dev/null
  jq -cS .deterministic "$OUT/BENCH_$area.json" > "$OUT/BENCH_$area.det.json"
done
"$BIN/cedarbench" run -q -stepped -jobs 2 -config bench/campaigns/smoke.json -out "$OUT/BENCH_smoke_stepped.json" > /dev/null
jq -cS .deterministic "$OUT/BENCH_smoke_stepped.json" > "$OUT/BENCH_smoke_stepped.det.json"

"$BIN/cedarserve" -addr localhost:18399 -store "$OUT/store" > /dev/null & pid=$!
trap 'kill $pid 2>/dev/null || true' EXIT
for _ in $(seq 50); do curl -s -o /dev/null localhost:18399/v1/stats && break; sleep 0.1; done
curl -s -d '{"workload":{"kind":"trimat","n":32}}' localhost:18399/v1/run > "$OUT/serve-trimat.json"
curl -s -d '{"machine":{"clusters":2,"fabric":"crossbar"},"workload":{"kind":"rank","n":32,"variant":"cache"},"fault":{"name":"demo","demo":true}}' localhost:18399/v1/run > "$OUT/serve-rank-demo.json"
ls "$OUT/store/blobs" > "$OUT/serve-blobs.txt"
kill $pid; wait $pid 2>/dev/null || true; trap - EXIT

cd "$OUT" && sha256sum report.txt sim-faulted.json sim.txt sim.trace.json sim.metrics.csv judge-ppt4.txt \
  BENCH_smoke.det.json BENCH_latency.det.json BENCH_wide.det.json BENCH_smoke_stepped.det.json \
  serve-trimat.json serve-rank-demo.json serve-blobs.txt
