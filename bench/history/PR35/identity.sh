#!/usr/bin/env bash
# identity.sh BIN OUT — the byte-identity check for one side of a change.
# BIN holds that side's CLIs (go build -o BIN/ ./cmd/...); run the script
# from the root of the checkout BIN was built from. Every output lands in
# OUT and one sha256 per output is printed: diff one side's listing
# against the other's. It is bench/history/PR27/identity.sh with the
# report lines on cedarsim, which writes the report since cedarreport
# went: no names runs the whole evaluation, and -small selects the
# report's sizes (t2's reduced slices, membw at 2,048 words per CE).
# Stripped before hashing: the -json header (jobs/gomaxprocs), the BENCH
# measured sections, and each cedarserve body's "key".
set -euo pipefail
BIN=$(cd "$1" && pwd); mkdir -p "$2"; OUT=$(cd "$2" && pwd)

# The nine names cedarsim -all selected before it went: the eight
# kernel-level ones and degraded (which -faults appends anyway).
names="overheads t1 t2 net sched prefblock scaled membw degraded"

"$BIN/cedarsim" -q -small -n 32 -codes QCD,TRACK -trace "$OUT/report.trace.json" -metrics "$OUT/report.metrics.csv" > "$OUT/report.txt"
"$BIN/cedarsim" -q -small -n 32 overheads t1 t2 membw net prefblock sched scaled > "$OUT/report-kernels.txt"

"$BIN/cedarsim" -n 32 -small -json -faults demo -jobs 1 $names | jq -cS 'del(.header)' > "$OUT/sim-faulted.json"
"$BIN/cedarsim" -n 32 -small -trace "$OUT/sim.trace.json" -metrics "$OUT/sim.metrics.csv" $names > "$OUT/sim.txt"
"$BIN/cedarsim" -faults demo -n 48 -q degraded > "$OUT/sim-degraded.txt"
"$BIN/cedarsim" -clusters 16 -q membw > "$OUT/sim-membw16.txt"
"$BIN/cedarsim" -q -codes QCD,TRACK -jobs 2 -trace "$OUT/suite.trace.json" -metrics "$OUT/suite.metrics.csv" t3 t4 > "$OUT/t3t4.txt"
"$BIN/cedarsim" -q -codes TRACK -faults demo t3 t4 > "$OUT/t3t4-faulted.txt"
"$BIN/cedarsim" -q ppt4 > "$OUT/ppt4.txt"

for area in smoke latency wide; do
  "$BIN/cedarbench" run -q -config "bench/campaigns/$area.json" -out "$OUT/BENCH_$area.json" > /dev/null
  jq -cS '.deterministic' "$OUT/BENCH_$area.json" > "$OUT/BENCH_$area.det.json"
done
"$BIN/cedarbench" run -q -stepped -jobs 2 -config bench/campaigns/smoke.json -out "$OUT/BENCH_smoke_stepped.json" > /dev/null
jq -cS '.deterministic' "$OUT/BENCH_smoke_stepped.json" > "$OUT/BENCH_smoke_stepped.det.json"

"$BIN/cedarserve" -addr localhost:18399 -store "$OUT/store" > /dev/null & pid=$!
trap 'kill $pid 2>/dev/null || true' EXIT
for _ in $(seq 50); do curl -s -o /dev/null localhost:18399/v1/stats && break; sleep 0.1; done
curl -s -d '{"workload":{"kind":"trimat","n":32}}' localhost:18399/v1/run | jq -cS 'del(.key)' > "$OUT/serve-trimat.json"
curl -s -d '{"machine":{"clusters":2,"fabric":"crossbar"},"workload":{"kind":"rank","n":32,"variant":"cache"},"fault":{"name":"demo","demo":true}}' localhost:18399/v1/run |
  jq -cS 'del(.key)' > "$OUT/serve-rank-demo.json"
ls "$OUT/store/blobs" > "$OUT/serve-blobs.txt"
kill $pid; wait $pid 2>/dev/null || true; trap - EXIT

cd "$OUT" && sha256sum report.txt report.trace.json report.metrics.csv report-kernels.txt \
  sim-faulted.json sim.txt sim.trace.json sim.metrics.csv sim-degraded.txt sim-membw16.txt \
  t3t4.txt suite.trace.json suite.metrics.csv t3t4-faulted.txt ppt4.txt \
  BENCH_smoke.det.json BENCH_latency.det.json BENCH_wide.det.json BENCH_smoke_stepped.det.json \
  serve-trimat.json serve-rank-demo.json serve-blobs.txt
