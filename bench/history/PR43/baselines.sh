#!/usr/bin/env bash
# baselines.sh PARENT CHANGE — shows that rewriting the campaigns' notes
# moved nothing else in the committed baselines: for each
# bench/BENCH_<area>.json of the two checkouts it prints the sha256 of the
# deterministic and of the measured section (jq -cS, so key order and
# layout do not count) on both sides, the header fields that differ, and
# the lines git diff --no-index finds between the two files. Needs jq.
#
#   bash bench/history/PR43/baselines.sh ../parent . > bench/history/PR43/baselines.txt
set -euo pipefail
PARENT=$(cd "$1" && pwd); CHANGE=$(cd "$2" && pwd)
for area in smoke latency wide; do
  a="$PARENT/bench/BENCH_$area.json" b="$CHANGE/bench/BENCH_$area.json"
  echo "=== BENCH_$area.json"
  for section in deterministic measured; do
    pa=$(jq -cS ".$section" "$a" | sha256sum | cut -c1-16)
    pb=$(jq -cS ".$section" "$b" | sha256sum | cut -c1-16)
    verdict=identical; [ "$pa" = "$pb" ] || verdict=DIFFERS
    echo "$section: parent $pa, change $pb: $verdict"
  done
  echo "header fields that differ: $(jq -rn --slurpfile x "$a" --slurpfile y "$b" \
    '[$x[0].header | keys[] as $k | select($x[0].header[$k] != $y[0].header[$k]) | $k] | join(", ")')"
  echo "lines added, deleted (git diff --no-index --numstat): $(git diff --no-index --numstat "$a" "$b" | cut -f1,2 | tr "\t" " " || true)"
done
