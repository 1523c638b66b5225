#!/usr/bin/env bash
# check.sh — the full local verification gate, and the one CI runs. What
# each test gates is stated in its own doc comment, not here.
#
#   FUZZTIME=30s scripts/check.sh    # longer fuzz smoke (default 5s each)
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-5s}"

# stage ends the running stage with its elapsed seconds and starts the next.
SECONDS=0
stage_name=""
stage() {
  [ -z "$stage_name" ] || echo "    [$((SECONDS - stage_start))s] $stage_name"
  stage_name="$1" stage_start=$SECONDS
  [ -z "$1" ] || echo "==> $1"
}

stage "go build ./..."
go build ./...

# gofmt fails on any file gofmt -l lists.
stage "gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "$unformatted"
  echo "gofmt: the files above need formatting (gofmt -w)" >&2
  exit 1
fi

stage "go vet ./..."
go vet ./...

stage "go test ./..."
# The unraced pass: the only one that runs the report, identity and lint gates.
go test ./...

stage "data-path benchmarks at 1x"
# One iteration of the data-path and engine-pass benchmarks, so the command that states their win keeps building.
go test -run '^$' -bench '^(BenchmarkOmegaTick|BenchmarkMemoryTick|BenchmarkEnginePass)$' -benchtime=1x ./internal/network ./internal/gmem ./internal/sim

stage "go test -race ./..."
# Every gate that does not skip itself under -race, with the detector watching.
go test -race ./...

stage "fuzz smoke ($FUZZTIME per target)"
go test -run='^$' -fuzz='^FuzzOmegaRouting$' -fuzztime="$FUZZTIME" ./internal/network
go test -run='^$' -fuzz='^FuzzInstability$' -fuzztime="$FUZZTIME" ./internal/ppt
go test -run='^$' -fuzz='^FuzzBands$' -fuzztime="$FUZZTIME" ./internal/ppt
go test -run='^$' -fuzz='^FuzzBlobOnDisk$' -fuzztime="$FUZZTIME" ./internal/store
go test -run='^$' -fuzz='^FuzzPointValidate$' -fuzztime="$FUZZTIME" ./internal/bench
go test -run='^$' -fuzz='^FuzzWakeInterleavings$' -fuzztime="$FUZZTIME" ./internal/sim

stage ""
# The Go line counts, whole module and outside the frozen cmd/cedarperf.
golines() { find . -name '*.go' "$@" -print0 | xargs -0 cat | wc -l; }
echo "non-test Go lines: $(golines ! -name '*_test.go') total, $(golines ! -name '*_test.go' ! -path './cmd/cedarperf/*') outside cmd/cedarperf"
echo "test Go lines: $(golines -name '*_test.go') total, $(golines -name '*_test.go' ! -path './cmd/cedarperf/*') outside cmd/cedarperf"
echo "OK in ${SECONDS}s: build, gofmt, vet, tests (static checks, allocation gates, report goldens, identity manifests), race tests (jobs, stepped, data-path and serve equality) and fuzz smoke all green"
