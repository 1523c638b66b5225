#!/usr/bin/env bash
# identity.sh SIDE BIN OUT — the byte-identity check across the change that
# folds perfect and judge into cedarsim. SIDE is "parent" or "new": it picks
# the old invocation or the new one wherever they differ. BIN holds that
# side's CLIs (go build -o BIN/ ./cmd/...); run the script from the root of
# the checkout BIN was built from. Every output lands in OUT and one sha256
# per output is printed: diff the parent's listing against the new one.
# Stripped before hashing: the host-time trailer, the -json header
# (jobs/gomaxprocs), perfect's and judge's title lines (cedarsim prints
# none), the BENCH measured sections and the deterministic "fleet" object
# the new side no longer writes.
set -euo pipefail
SIDE=$1
BIN=$(cd "$2" && pwd); mkdir -p "$3"; OUT=$(cd "$3" && pwd)
case $SIDE in parent | new) ;; *) echo "identity.sh: SIDE must be parent or new" >&2; exit 2 ;; esac

# The nine names cedarsim -all selected, in its order: the eight
# kernel-level ones and degraded (which -faults appends anyway).
names="overheads t1 t2 net sched prefblock scaled membw degraded"
all() { if [ "$SIDE" = parent ]; then "$BIN/cedarsim" -all "$@"; else "$BIN/cedarsim" "$@" $names; fi; }

"$BIN/cedarreport" -q -n 32 -codes QCD,TRACK -trace "$OUT/report.trace.json" -metrics "$OUT/report.metrics.csv" |
  grep -v '^report generated in' > "$OUT/report.txt"
"$BIN/cedarreport" -q -n 32 -kernels-only | grep -v '^report generated in' > "$OUT/report-kernels.txt"

all -n 32 -small -json -faults demo -jobs 1 | jq -cS 'del(.header)' > "$OUT/sim-faulted.json"
all -n 32 -small -trace "$OUT/sim.trace.json" -metrics "$OUT/sim.metrics.csv" > "$OUT/sim.txt"
if [ "$SIDE" = parent ]; then
  "$BIN/cedarsim" -faults demo -n 48 > "$OUT/sim-degraded.txt"
  "$BIN/cedarsim" -clusters 16 -membw > "$OUT/sim-membw16.txt"
  "$BIN/perfect" -q -codes QCD,TRACK -jobs 2 -trace "$OUT/suite.trace.json" -metrics "$OUT/suite.metrics.csv" |
    grep -v '^Table [34]: ' > "$OUT/t3t4.txt"
  "$BIN/judge" -ppt4 -q | grep -v '^PPT4: code and architecture scalability$' > "$OUT/ppt4.txt"
else
  "$BIN/cedarsim" -faults demo -n 48 -q > "$OUT/sim-degraded.txt"
  "$BIN/cedarsim" -clusters 16 -q membw > "$OUT/sim-membw16.txt"
  "$BIN/cedarsim" -q -codes QCD,TRACK -jobs 2 -trace "$OUT/suite.trace.json" -metrics "$OUT/suite.metrics.csv" t3 t4 > "$OUT/t3t4.txt"
  "$BIN/cedarsim" -q ppt4 > "$OUT/ppt4.txt"
fi

for area in smoke latency wide; do
  "$BIN/cedarbench" run -q -config "bench/campaigns/$area.json" -out "$OUT/BENCH_$area.json" > /dev/null
  jq -cS '.deterministic | del(.fleet)' "$OUT/BENCH_$area.json" > "$OUT/BENCH_$area.det.json"
done
"$BIN/cedarbench" run -q -stepped -jobs 2 -config bench/campaigns/smoke.json -out "$OUT/BENCH_smoke_stepped.json" > /dev/null
jq -cS '.deterministic | del(.fleet)' "$OUT/BENCH_smoke_stepped.json" > "$OUT/BENCH_smoke_stepped.det.json"

"$BIN/cedarserve" -addr localhost:18399 -store "$OUT/store" > /dev/null & pid=$!
trap 'kill $pid 2>/dev/null || true' EXIT
for _ in $(seq 50); do curl -s -o /dev/null localhost:18399/v1/stats && break; sleep 0.1; done
curl -s -d '{"workload":{"kind":"trimat","n":32}}' localhost:18399/v1/run > "$OUT/serve-trimat.json"
curl -s -d '{"machine":{"clusters":2,"fabric":"crossbar"},"workload":{"kind":"rank","n":32,"variant":"cache"},"fault":{"name":"demo","demo":true}}' localhost:18399/v1/run > "$OUT/serve-rank-demo.json"
ls "$OUT/store/blobs" > "$OUT/serve-blobs.txt"
kill $pid; wait $pid 2>/dev/null || true; trap - EXIT

cd "$OUT" && sha256sum report.txt report.trace.json report.metrics.csv report-kernels.txt \
  sim-faulted.json sim.txt sim.trace.json sim.metrics.csv sim-degraded.txt sim-membw16.txt \
  t3t4.txt suite.trace.json suite.metrics.csv ppt4.txt \
  BENCH_smoke.det.json BENCH_latency.det.json BENCH_wide.det.json BENCH_smoke_stepped.det.json \
  serve-trimat.json serve-rank-demo.json serve-blobs.txt
