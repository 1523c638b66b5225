#!/usr/bin/env bash
# vet-history.sh — what has each cedarvet check ever reported? Runs one
# cedarvet binary over every commit of `git log` and prints a commits ×
# checks table of finding counts, then each message class with the
# commits it appears on. The evidence behind "an analyzer earns its place
# with a caught bug or is deleted" (EXPERIMENTS.md, "cedarvet — what each
# check has caught").
#
#   scripts/vet-history.sh                 # build and use HEAD's cedarvet
#   scripts/vet-history.sh path/to/cedarvet  # an older build, e.g. the parent's
#
# Each commit is extracted with `git archive` into a temp dir (nothing is
# fetched, the work tree is not touched); ≈3 s per commit.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C # byte-wise sort: the same table on every host

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

vet="${1:-}"
if [ -z "$vet" ]; then
  vet="$tmp/cedarvet"
  go build -o "$vet" ./cmd/cedarvet
fi
vet=$(realpath "$vet")

# The binary's own check list (naming an unknown check prints it), plus
# the two directive pseudo-checks.
checks="$({ "$vet" -checks nosuch 2>&1 || true; } | sed -n 's/.*(valid: \(.*\))$/\1/p' | tr -d ,) lintstale lintdirective"

printf '%-8s' commit
for c in $checks; do printf ' %*s' "${#c}" "$c"; done
printf '  subject\n'

: > "$tmp/all"
git log --reverse --format='%h %<(60,trunc)%s' | while read -r sha subject; do
  tree="$tmp/$sha"
  mkdir "$tree"
  git archive "$sha" | tar -x -C "$tree"
  # file:line:col: check: message — exit 1 is "findings", 2 a load failure.
  rc=0
  (cd "$tree" && "$vet" ./... > "$tmp/out" 2> "$tmp/err") || rc=$?
  printf '%-8s' "$sha"
  if [ "$rc" -gt 1 ]; then
    printf ' did not load: %s\n' "$(head -1 "$tmp/err")"
  else
    for c in $checks; do
      printf ' %*d' "${#c}" "$(grep -c "^[^ ]*: $c: " "$tmp/out" || true)"
    done
    printf '  %s\n' "$subject"
    sed -E "s/^[^ ]*: ([a-z]+): /$sha \1: /" "$tmp/out" >> "$tmp/all"
  fi
  rm -rf "$tree"
done

# A message class is the message's first clause with the names masked.
printf '\n%-7s %4s  %s\n' commits most 'check: message class (commits it is reported on, most on any one)'
sed -E 's/ in per-cycle code \(reachable from .*//; s/;.*//; s/"[^"]*"/"…"/g
        s/(field|comment of|return of|number) [^ ]+/\1 X/; s/count [^ ]+ to [^ ]+/count X to T/
        s/duplicates [^ ]+/duplicates P/' "$tmp/all" |
  sort | uniq -c |
  awk '{ n = $1; $1 = $2 = ""; sub(/^  /, ""); commits[$0]++; if (n > most[$0]) most[$0] = n }
       END { for (k in commits) printf "%-7d %4d  %s\n", commits[k], most[k], k }' |
  sort -k3
