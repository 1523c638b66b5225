#!/usr/bin/env bash
# diff-plants.sh SRC OUT [plant...] — the plant study behind retiring
# cedarbench's diff mode (CHANGES.md). Copies the checkout SRC to
# OUT/tree, plants one bug at a time there, reverts it, and prints per
# plant:
#
#   diff    where SRC still has the diff mode (the parent): each committed
#           campaign run from the planted tree and diffed against its
#           committed bench/BENCH_<area>.json, the verdict, the run's
#           mallocs per pass beside the baseline's, and what diff printed;
#   tier-1  the tests go test ./... fails;
#   pin     what TestCampaignsMatchTheCommittedBaselines printed when it
#           failed: each campaign's message and its first moved points, or
#           every moved point for the plants named in FULL (default
#           one-cycle).
#
# The clean tree comes first; its verdicts must read "no change" and
# PASS. One copy is planted and reverted in place, so go's test cache
# re-runs only the packages a plant reaches. Restrict the plants by
# naming them, and the passes with PASSES (default "diff tier1"; diff is
# skipped where SRC has no diff mode). Needs jq. On 2 CPUs both passes
# take ≈21 minutes for all nine plants, tier-1 alone ≈16.
#
#   bash bench/history/PR43/diff-plants.sh ../parent ../dp-parent > parent.txt
#   bash bench/history/PR43/diff-plants.sh . ../dp-change > change.txt
set -euo pipefail
SRC=$(cd "$1" && pwd); mkdir -p "$2"; OUT=$(cd "$2" && pwd); shift 2
only=" $* "
passes=" ${PASSES:-diff tier1} "
full=" ${FULL:-one-cycle} "
tree="$OUT/tree"
rm -rf "$tree"; mkdir -p "$tree"
tar -c -C "$SRC" --exclude=./.git --exclude=./artifacts . | tar -x -C "$tree"
cd "$tree"
if ! grep -q '"diff"' cmd/cedarbench/main.go; then
  passes=${passes/ diff / }
fi

# capped N — prints its input's first N lines and how many it left out.
capped() {
  awk -v n="$1" 'NR <= n { print } END { if (NR > n) printf "  … (%d more)\n", NR - n }'
}

# diffverdict — the parent's gate: run and diff each committed campaign.
diffverdict() {
  go build -o "$OUT/cedarbench" ./cmd/cedarbench
  local area code
  for area in smoke latency wide; do
    if ! "$OUT/cedarbench" run -q -config "bench/campaigns/$area.json" -out "$OUT/BENCH_$area.json" > /dev/null 2> "$OUT/run.err"; then
      echo "diff   $area RUN FAILS: $(tail -1 "$OUT/run.err")"
      continue
    fi
    code=0
    "$OUT/cedarbench" diff "bench/BENCH_$area.json" "$OUT/BENCH_$area.json" > "$OUT/diff.txt" 2>&1 || code=$?
    if [ "$code" = 0 ]; then echo "diff   $area PASS"; else echo "diff   $area FAIL (exit $code)"; fi
    echo "  mallocs per pass $(jq -r '[.measured.runs[] | "jobs=\(.jobs) \(.mallocs)"] | join(", ")' "$OUT/BENCH_$area.json")" \
      "(baseline $(jq -r '[.measured.runs[] | "jobs=\(.jobs) \(.mallocs)"] | join(", ")' "bench/BENCH_$area.json"))"
    sed 's/^/  /' "$OUT/diff.txt" | capped 6
  done
}

# failed JSON — one "package Test" line per failing top-level test of a
# go test -json stream, or each failing package when no test failed (a
# build failure).
failed() {
  local tests
  tests=$(jq -Rr 'fromjson? | select(.Action == "fail" and .Test != null and (.Test | contains("/") | not)) | "\(.Package) \(.Test)"' "$1" | sort -u)
  if [ -n "$tests" ]; then
    echo "$tests"
  else
    jq -Rr 'fromjson? | select(.Action == "fail") | "\(.Package) (package fails)"' "$1" | sort -u
  fi
}

# pin NAME — what the campaign gate printed in the last tier-1 pass.
pin() {
  local lines=3
  case $full in *" $1 "*) lines=100000 ;; esac
  jq -Rr 'fromjson? | select(.Action == "output" and .Package == "cedar/internal/bench"
      and .Test == "TestCampaignsMatchTheCommittedBaselines") | .Output' "$OUT/pass.json" |
    awk -v n="$lines" '
      /^ +identity_test\.go:[0-9]+: / { flush(); sub(/^ +identity_test\.go:[0-9]+: /, ""); print "pin    " $0; k = 0; next }
      /^ +\t/ { sub(/^ +\t/, ""); if (++k <= n) print "  " $0; next }
      function flush() { if (k > n) printf "  … (%d more)\n", k - n; k = 0 }
      END { flush() }'
}

# tier1 NAME — go test ./... on the tree as it stands.
tier1() {
  if go test -json ./... > "$OUT/pass.json" 2>&1; then
    echo "tier-1 PASS"
  else
    failed "$OUT/pass.json" | sed 's/^/tier-1 FAIL /'
    pin "$1"
  fi
}

verdicts() {
  case $passes in *" diff "*) diffverdict ;; esac
  case $passes in *" tier1 "*) tier1 "$1" ;; esac
}

printf '=== clean tree\n'
verdicts clean

# plant NAME WHAT FILE PERL
plant() {
  local name=$1 what=$2 file=$3 expr=$4
  case $only in "  ") ;; *" $name "*) ;; *) return 0 ;; esac
  cp "$file" "$OUT/orig"
  perl -0pi -e "$expr" "$file"
  if cmp -s "$OUT/orig" "$file"; then
    echo "$name: substitution did not apply" >&2; exit 1
  fi
  printf '\n=== %s: %s (%s)\n' "$name" "$what" "$file"
  verdicts "$name"
  cp "$OUT/orig" "$file"
}

# objects N — a statement that allocates N objects where it runs, and the
# package variable that makes them escape.
objects() { echo "\$&\n\tfor range $1 {\n\t\tplantSink = new(int64)\n\t}"; }
sink='\nvar plantSink *int64\n'

# The model: simcycle moves below and above diff's 5%, a one-cycle move
# (the pin's per-point list in full), a status flip, a vanished point.
plant cycles-under-5 "VectorStartup 12 → 13" internal/params/params.go \
  's~VectorStartup: 12,~VectorStartup: 13,~'
plant cycles-over-5 "MemLatency 3 → 6" internal/params/params.go \
  's~MemLatency:    3,~MemLatency:    6,~'
plant one-cycle "CDoallStart 24 → 25" internal/params/params.go \
  's~CDoallStart:      24,~CDoallStart:      25,~'
plant status-flip "every faulted run reported degraded" internal/core/machine.go \
  's~if len\(failed\) > 0 \{~if len(failed) > 0 || m.Faults != nil {~'
plant smoke-drop "workload vl1k removed from the smoke campaign" bench/campaigns/smoke.json \
  's~\n    \{"name": "vl1k"[^\n]*~~'

# Allocations: one object per tick in two tick paths, 500 per campaign
# cell in runPoint, 400 per job in the fleet worker.
plant ce-tick "one object per CE.Tick" internal/ce/ce.go \
  "s~func \\(c \\*CE\\) Tick\\(cycle int64\\) \\{~$(objects 1)~; s~\\z~$sink~"
plant omega-tick "one object per Omega.Tick" internal/network/omega.go \
  "s~func \\(o \\*Omega\\) Tick\\(cycle int64\\) \\{~$(objects 1)~; s~\\z~$sink~"
plant runpoint-500 "500 objects per cell in bench.runPoint" internal/bench/run.go \
  "s~func runPoint\\(id string, pt Point, metrics \\[\\]string, opt RunOptions\\) \\(Outcome, error\\) \\{~$(objects 500)~; s~\\z~$sink~"
plant fleet-400 "400 objects per job in fleet.runGuarded" internal/fleet/fleet.go \
  "s~\\thubs\\[i\\] = parent\\.Fork\\(\\)\\n~\\tfor range 400 {\\n\\t\\tplantSink = new(int64)\\n\\t}\\n\$&~; s~\\z~$sink~"
