#!/usr/bin/env bash
# plants.sh SRC OUT [plant...] — plants each bug class the wheel's gates
# exist for in a fresh copy of the checkout SRC (under OUT), runs the
# internal/sim test named beside it and prints what the test says. No
# plant name runs all four: nomigrate staledue horizon plainlost. Each
# plant must fail its test; the script exits 1 if one passes.
set -euo pipefail
SRC=$(cd "$1" && pwd)
OUT=$(mkdir -p "$2" && cd "$2" && pwd)
shift 2
plants=("$@")
[ ${#plants[@]} -gt 0 ] || plants=(nomigrate staledue horizon plainlost)

# edit FILE OLD NEW: replace OLD by NEW in FILE, which must contain OLD
# exactly once.
edit() {
  python3 - "$1" "$2" "$3" <<'PY'
import sys
path, old, new = sys.argv[1:]
s = open(path).read()
if s.count(old) != 1:
    sys.exit(f"{path}: anchor found {s.count(old)} times: {old!r}")
open(path, "w").write(s.replace(old, new))
PY
}

status=0
for plant in "${plants[@]}"; do
  dir="$OUT/$plant"
  rm -rf "$dir" && mkdir -p "$dir"
  (cd "$SRC" && git ls-files -co --exclude-standard -z | xargs -0 cp --parents -t "$dir")
  cd "$dir"
  case $plant in
  nomigrate)
    what="an executed cycle does not move the overflow heap's elements the clock has brought within the horizon into the wheel (only a jump does)"
    edit internal/sim/sim.go '	e.cycle = next
	e.migrate()' '	e.cycle = next'
    gate=(go test -count=1 -run '^TestRandomWakeInterleavingsMatchStepped$' ./internal/sim) ;;
  staledue)
    what="the pass ticks every posted bit, a post that a later wake or re-arm superseded included"
    edit internal/sim/sim.go '			if e.entries[i].wake != c {
				continue
			}
' ''
    gate=(go test -count=1 -run '^TestRandomWakeInterleavingsMatchStepped$' ./internal/sim) ;;
  horizon)
    what="the horizon is off by one: a wake exactly wheelSlots cycles ahead goes to the wheel, whose slot for it is the executing cycle's"
    edit internal/sim/sim.go 'return at-e.cycle < wheelSlots }' 'return at-e.cycle <= wheelSlots }'
    gate=(go test -count=1 -run '^TestRandomWakeInterleavingsMatchStepped$' ./internal/sim) ;;
  plainlost)
    what="a plain component that ticks is not re-posted for the next cycle"
    edit internal/sim/sim.go '			at := next
			if sl := e.entries[i].s; sl != nil {' '			at := Never
			if sl := e.entries[i].s; sl != nil {'
    gate=(go test -count=1 -run '^(TestTickOrderAndCycleValue|TestPlainHidesSleeper)$' ./internal/sim) ;;
  *)
    echo "unknown plant $plant" >&2
    exit 2 ;;
  esac
  echo "plant: $what"
  echo "command: ${gate[*]}"
  echo
  if out=$("${gate[@]}" 2>&1); then
    echo "$out" | sed 's/^/    /'
    echo "    -> PASSED: the plant is not caught"
    status=1
  else
    # The first lines name the failure; a diverging scenario's logs run long.
    echo "$out" | grep -vE '^=== (RUN|PAUSE|CONT)|^--- PASS|^PASS$|^ok ' | cut -c1-240 | awk 'NR <= 12' | sed 's/^/    /'
  fi
  echo
  cd "$OUT"
  rm -rf "$dir"
done
exit $status
