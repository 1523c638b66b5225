#!/usr/bin/env bash
# mutants.sh SRC OUT — plants two defects the root equality gates exist to
# catch, each in a fresh copy of the checkout SRC under OUT, and runs the
# root package's equality gates against it. Prints one line per mutant
# and gate: FAIL means the gate caught the mutant. Run it on the parent
# and on the change; every mutant must be caught on both.
#
#   fleet-reverse-adopt  fleet.Run adopts its workers' hubs in reverse
#                        submission order (a -jobs N run only).
#   jam-on-skipped-tick  the omega draws a stage jam on every tick, so it
#                        consumes fault randomness on cycles the event
#                        wheel skips (a stepped-vs-event divergence).
set -euo pipefail
SRC=$(cd "$1" && pwd); mkdir -p "$2"; OUT=$(cd "$2" && pwd)
# The root equality gates by name.
gates=$(cd "$SRC" && grep -ho '^func \(TestParallelVsSequentialEquality\|TestFaultedRunDeterministic\|TestSteppedVsEvent[A-Za-z]*\)' ./*_test.go | sed 's/^func //' | sort)

plant() { # name file perl-substitution
  local dir="$OUT/$1"
  rm -rf "$dir"; mkdir -p "$dir"
  tar -c -C "$SRC" --exclude=./.git --exclude=./artifacts . | tar -x -C "$dir"
  perl -0pi -e "$3" "$dir/$2"
  if cmp -s "$SRC/$2" "$dir/$2"; then
    echo "$1: substitution did not apply" >&2; exit 1
  fi
  for g in $gates; do
    if (cd "$dir" && go test -count=1 -run "^$g\$" . > "$dir/$g.log" 2>&1); then
      echo "$1 $g PASS (missed)"
    else
      echo "$1 $g FAIL (caught)"
    fi
  done
}

plant fleet-reverse-adopt internal/fleet/fleet.go \
  's/for _, h := range hubs \{\n\t\tcfg\.Hub\.Adopt\(h\)\n\t\}/for i := len(hubs) - 1; i >= 0; i-- {\n\t\tcfg.Hub.Adopt(hubs[i])\n\t}/'
plant jam-on-skipped-tick internal/network/omega.go \
  's/(func \(o \*Omega\) Tick\(cycle int64\) \{\n\to\.now = cycle \+ 1\n)/$1\tif o.inj != nil {\n\t\to.inj.StageJam(o.name, 0, 0, cycle)\n\t}\n/'
