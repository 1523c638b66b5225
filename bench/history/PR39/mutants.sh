#!/usr/bin/env bash
# mutants.sh SRC OUT — plants three small bugs, each in a fresh copy of
# the checkout SRC under OUT, runs tier-1 (go test ./...) in the copy and
# prints every test that fails, one line each, then what the identity
# gates name: the manifest lines that moved (manifest.Check) and the
# first campaign point that moved. A mutant no test catches prints
# "tier-1 PASS (missed)". Run it on the parent and on the change; needs jq.
#
#   gmem-column-swap    the gmem metric table publishes stalls and sync ops
#                       under each other's names (every hub, every run).
#   latency-gap-long    the campaigns' latency kind waits 1% longer between
#                       dependent loads (only campaigns run that kind; the
#                       cycles move by less than cedarbench diff's 5%).
#   serve-key-unresolved cedarserve keys a request on its metric list as
#                       sent, not as resolved (default prefixes), so every
#                       request without one moves key and blob name.
set -euo pipefail
SRC=$(cd "$1" && pwd); mkdir -p "$2"; OUT=$(cd "$2" && pwd)

plant() { # name file perl-substitution
  local dir="$OUT/$1"
  rm -rf "$dir"; mkdir -p "$dir"
  tar -c -C "$SRC" --exclude=./.git --exclude=./artifacts . | tar -x -C "$dir"
  perl -0pi -e "$3" "$dir/$2"
  if cmp -s "$SRC/$2" "$dir/$2"; then
    echo "$1: substitution did not apply" >&2; exit 1
  fi
  local status=0
  (cd "$dir" && go test -count=1 -json ./... > "$dir/tier1.json" 2>&1) || status=$?
  local failed
  failed=$(jq -Rr 'fromjson? | select(.Action == "fail" and .Test != null) | "\(.Package) \(.Test)"' "$dir/tier1.json" | sort)
  if [ -n "$failed" ]; then
    echo "$failed" | sed "s/^/$1 FAIL /"
  elif [ "$status" -ne 0 ]; then
    echo "$1 go test exited $status with no failing test (see $dir/tier1.json)"
  else
    echo "$1 tier-1 PASS (missed)"
  fi
  jq -Rr 'fromjson? | select(.Action == "output") | "\(.Package) \(.Output)"' "$dir/tier1.json" |
    grep -E $'^\\S+ \\s+(\t(moved|added|gone): |.*campaign differs from)' |
    sed -E $'s/^(\\S+) \\s+(\\S+_test\\.go:[0-9]+: )?\t?/\\1 /; s/ campaign differs from [^,]*,/:/; s/; for a deliberate.*//' | sed "s/^/$1 names /" || true
}

plant gmem-column-swap internal/core/instrument.go \
  's/s\.SyncOps, s\.Stalls, s\.BusyCyc/s.Stalls, s.SyncOps, s.BusyCyc/'
plant latency-gap-long internal/bench/run.go \
  's/kernels\.LoadLatency\(m, cmp\.Or\(w\.N, 2000\), int64\(w\.Gap\)\)/kernels.LoadLatency(m, cmp.Or(w.N, 2000), int64(w.Gap)+int64(w.Gap)\/100)/'
plant serve-key-unresolved internal/serve/serve.go \
  's/key, err := requestKey\(req, plan, metrics\)/key, err := requestKey(req, plan, req.Metrics)/'
