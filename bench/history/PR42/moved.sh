#!/usr/bin/env bash
# moved.sh — proves each section that left EXPERIMENTS.md or DESIGN.md
# for a bench/history/PR<n>/NOTES.md file moved byte for byte. For every
# moved section it prints the sha256 of its body (heading to the line
# before the next "## " heading, trailing blank lines dropped) in its
# doc at the parent commit and in its NOTES file, "same" or "DIFFERENT",
# the doc, the NOTES path and the title. Exit status 1 if any differs.
# Run from the checkout:
#
#   bash bench/history/PR42/moved.sh > bench/history/PR42/moved.txt
set -euo pipefail
parent=7b738eb

# section TITLE < FILE prints the "## TITLE…" section of FILE.
section() {
  awk -v t="## $1" '
    /^## / { on = index($0, t) == 1 }
    on { buf[n++] = $0; if ($0 != "") last = n }
    END { for (i = 0; i < last; i++) print buf[i] }'
}

status=0
while IFS='|' read -r doc pr title; do
  old=$(git show "$parent:$doc" | section "$title" | sha256sum | cut -c1-64)
  new=$(section "$title" < "bench/history/PR$pr/NOTES.md" | sha256sum | cut -c1-64)
  verdict=same
  [ "$old" = "$new" ] || { verdict=DIFFERENT; status=1; }
  echo "$old $new $verdict $doc bench/history/PR$pr/NOTES.md $title"
done <<'LIST'
EXPERIMENTS.md|2|Observability overhead
EXPERIMENTS.md|3|Parallel orchestration speedup
EXPERIMENTS.md|6|cedarvet v2
EXPERIMENTS.md|7|Perf trajectory
EXPERIMENTS.md|8|Event-wheel engine
EXPERIMENTS.md|12|PR 12 —
EXPERIMENTS.md|13|PR 13 —
EXPERIMENTS.md|14|PR 14 —
EXPERIMENTS.md|15|PR 15 —
EXPERIMENTS.md|16|Intra-run parallelism
EXPERIMENTS.md|17|PR 17 —
EXPERIMENTS.md|18|The process-wide run cache
EXPERIMENTS.md|19|The store's index
EXPERIMENTS.md|21|The wake heap
EXPERIMENTS.md|22|Iterating costs nothing
EXPERIMENTS.md|23|A table row is a bench point
EXPERIMENTS.md|24|cedarvet — what each check has caught
EXPERIMENTS.md|25|One catalogue, two commands
EXPERIMENTS.md|26|The paper checks itself
DESIGN.md|13|Demand-materialised state
DESIGN.md|15|Instruction ownership
DESIGN.md|23|One experiment point
LIST
exit $status
