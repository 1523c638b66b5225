#!/usr/bin/env bash
# mutants.sh SRC OUT — types a paper figure into a table's Format, the
# way the report once carried sixteen of them, in a fresh copy of
# the checkout SRC under OUT. It then does what a deliberate report change
# does: regenerates the model manifest, the kernel golden and cedarsim's
# identity manifest from the copy itself, so only a gate that reads what
# the report says can still catch the figure. Last it runs tier-1
# (go test ./...) in the copy and prints every test that fails, one line
# each, or "tier-1 PASS (missed)". Run it on the parent and on the change;
# needs jq and perl.
#
#   t1-paper-74   Table 1's Format prints the GM/cache efficiency with
#                 "(paper: 74%)" after it. The parent already prints that
#                 line, so its mutant changes the figure to 47%: a wrong
#                 paper figure, judged by nothing.
set -euo pipefail
SRC=$(cd "$1" && pwd); mkdir -p "$2"; OUT=$(cd "$2" && pwd)

# regenerate rewrites the three committed report values from the copy's
# own output: each test prints its replacement file on a mismatch.
regenerate() {
  go test -count=1 -run '^TestModelManifest$' ./internal/tables 2>&1 |
    sed -nE 's/^ +([0-9a-f]{64}  .*)$/\1/p' > internal/tables/testdata/model.sha256.new || true
  if [ -s internal/tables/testdata/model.sha256.new ]; then
    mv internal/tables/testdata/model.sha256.new internal/tables/testdata/model.sha256
  else
    rm internal/tables/testdata/model.sha256.new
  fi
  go run ./cmd/cedarsim -q -small -n 32 overheads t1 t2 membw net prefblock sched scaled \
    > internal/tables/testdata/report_kernels_n32.golden
  go test -count=1 -run '^TestIdentityManifest$' ./cmd/cedarsim 2>&1 |
    sed -n '/becomes:$/,$p' | sed '1d' | sed -nE 's/^        (#.*|[0-9a-f]{64}  .*)$/\1/p' \
    > cmd/cedarsim/testdata/identity.sha256.new || true
  if [ -s cmd/cedarsim/testdata/identity.sha256.new ]; then
    mv cmd/cedarsim/testdata/identity.sha256.new cmd/cedarsim/testdata/identity.sha256
  else
    rm cmd/cedarsim/testdata/identity.sha256.new
  fi
}

plant() { # name file perl-substitution
  local dir="$OUT/$1"
  rm -rf "$dir"; mkdir -p "$dir"
  tar -c -C "$SRC" --exclude=./.git --exclude=./artifacts . | tar -x -C "$dir"
  perl -0pi -e "$3" "$dir/$2"
  if cmp -s "$SRC/$2" "$dir/$2"; then
    echo "$1: substitution did not apply" >&2; exit 1
  fi
  (cd "$dir" && regenerate)
  local status=0
  (cd "$dir" && go test -count=1 -json ./... > "$dir/tier1.json" 2>&1) || status=$?
  local failed
  failed=$(jq -Rr 'fromjson? | select(.Action == "fail" and .Test != null) | "\(.Package) \(.Test)"' "$dir/tier1.json" | sort)
  if [ -n "$failed" ]; then
    echo "$failed" | sed "s/^/$1 FAIL /"
    jq -Rr 'fromjson? | select(.Action == "output" and .Test == "TestPaperFiguresOnlyInClaims") | .Output' "$dir/tier1.json" |
      grep 'mentions the paper' | sed -E "s/^ +[a-z_]+\.go:[0-9]+: /$1 names /" || true
  elif [ "$status" -ne 0 ]; then
    echo "$1 go test exited $status with no failing test (see $dir/tier1.json)"
  else
    echo "$1 tier-1 PASS (missed)"
  fi
}

if grep -q '(paper: 74%%)' "$SRC/internal/tables/table1.go"; then
  plant t1-paper-74 internal/tables/table1.go 's/\(paper: 74%%\)/(paper: 47%%)/'
else
  plant t1-paper-74 internal/tables/table1.go \
    's/\treturn formatTable\(header, rows\)\n\}/\treturn formatTable(header, rows) +\n\t\tfmt.Sprintf("GM\/cache 4-cluster efficiency vs effective peak: %.0f%% (paper: 74%%)\\n", 100*t.CacheEfficiency())\n}/'
fi
