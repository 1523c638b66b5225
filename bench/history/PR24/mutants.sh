#!/usr/bin/env bash
# mutants.sh — the mutation table behind "hotalloc and the dynamic
# allocation gates both stay" (EXPERIMENTS.md, "cedarvet — what each check
# has caught"). In a scratch copy of the checkout it is run from, plants
# `hotSink = new(int64)` as the first statement of one per-tick function
# at a time and asks both guards: cedarvet's hotalloc (static) and the
# TestSteadyStateAllocs*/TestRunBudget gates (dynamic). Prints, per
# mutant, what each reported; ≈15 s per mutant.
#
#   bash bench/history/PR24/mutants.sh > bench/history/PR24/mutants.txt
set -euo pipefail
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/tree"
tar -C "$root" --exclude=.git --exclude=artifacts -c . | tar -x -C "$tmp/tree"
cd "$tmp/tree"
go build -o "$tmp/cedarvet" ./cmd/cedarvet

gates='^(TestSteadyStateAllocs.*|TestRunBudget)$'
pkgs="./internal/sim ./internal/cache ./internal/cfrt ./internal/network ./internal/gmem ./internal/prefetch ./internal/perfect"

echo "# \`hotSink = new(int64)\` planted at the top of one per-tick function at a time."
echo "# static: cedarvet -checks hotalloc ./... ; dynamic (first message per failing test):"
echo "# go test -count=1 -run '$gates' $pkgs"

n=0 static=0 dynamic=0
while read -r file recv name; do
  n=$((n + 1))
  cp "$file" "$tmp/orig"
  sed -i -E "/^func \([a-z]+ \*$recv\) $name\(/a\\	hotSink = new(int64)" "$file"
  echo 'var hotSink *int64' >> "$file"
  [ "$(grep -c 'hotSink = new' "$file")" = 1 ] || { echo "mutant $n: $file (*$recv).$name not found" >&2; exit 2; }

  printf '\n=== mutant %d: %s (*%s).%s\n' "$n" "$file" "$recv" "$name"
  if found=$("$tmp/cedarvet" -checks hotalloc ./... 2>/dev/null); then
    echo "static  miss: hotalloc reports nothing"
  else
    static=$((static + 1))
    echo "static  $found"
  fi
  # shellcheck disable=SC2086
  if out=$(go test -count=1 -run "$gates" $pkgs 2>&1); then
    echo "dynamic miss: every gate passes"
  else
    dynamic=$((dynamic + 1))
    echo "$out" | awk '/^--- FAIL/ { sub(/ \([0-9.]+s\)$/, ""); print "dynamic " $0; getline; print }'
  fi
  cp "$tmp/orig" "$file"
done <<'LIST'
internal/sim/sim.go Engine stepOnce
internal/network/omega.go Omega Tick
internal/network/crossbar.go Crossbar Tick
internal/gmem/memory.go Memory Tick
internal/cmem/cmem.go Memory Tick
internal/cache/cache.go Cache Tick
internal/ccbus/ccbus.go Bus book
internal/ce/ce.go CE Tick
internal/prefetch/pfu.go PFU Tick
internal/prefetch/pfu.go PFU expireTimeouts
internal/prefetch/pfu.go PFU reissue
LIST

printf '\n=== %d mutants: hotalloc reports %d, the dynamic gates fail on %d\n' "$n" "$static" "$dynamic"
