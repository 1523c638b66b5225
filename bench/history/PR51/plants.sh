#!/usr/bin/env bash
# plants.sh SRC OUT [plant...] — plants each bug class the per-machine
# slabs' gates exist for in a fresh copy of the checkout SRC (under OUT),
# runs the gate named beside it and prints what the gate says. No plant
# name runs all four: shortcarve noclear dirtychunk percemake. Each plant
# must fail its gate; the script exits 1 if one passes.
set -euo pipefail
SRC=$(cd "$1" && pwd)
OUT=$(mkdir -p "$2" && cd "$2" && pwd)
shift 2
plants=("$@")
[ ${#plants[@]} -gt 0 ] || plants=(shortcarve noclear dirtychunk percemake)

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
  shortcarve)
    what="Take carves each region one element short, so a region's last element is the next one's first: two CEs' buffers overlap"
    edit internal/network/pool.go '	s.free = s.free[n:]' '	s.free = s.free[n-1:]'
    gate=(go test -count=1 -run 'TestSlabCarvesZeroedRegions' -v ./internal/network) ;;
  noclear)
    what="Arm reuses the buffer for a block no longer than the longest so far without clearing it"
    edit internal/prefetch/pfu.go '	} else {
		clear(u.buf[:length])
	}' '	}'
    gate=(go test -count=1 -run 'TestRearmShorterThenLonger|TestPFUMatchesReference' -v ./internal/prefetch) ;;
  dirtychunk)
    what="a slab refill reuses the last chunk, unzeroed, when it is as large as the chunk asked for"
    edit internal/network/pool.go '	free []T // the current chunk'"'"'s untaken tail' '	free  []T // the current chunk'"'"'s untaken tail
	chunk []T'
    edit internal/network/pool.go '		s.free = make([]T, c) //' '		if cap(s.chunk) >= c {
			s.free = s.chunk[:c]
		} else {
			s.free = make([]T, c)
			s.chunk = s.free
		} //'
    gate=(go test -count=1 -run 'TestSlabCarvesZeroedRegions' -v ./internal/network) ;;
  percemake)
    what="startVector makes each CE its own stream table again, as at the parent"
    edit internal/ce/vector.go 'streams = c.sh.streams.Take(len(in.Srcs))' 'streams = make([]streamState, len(in.Srcs))'
    gate=(go test -count=1 -run 'TestRunCostsNoObjectPerCE|TestPointRunBudget' -v ./internal/bench) ;;
  *)
    echo "unknown plant $plant" >&2
    exit 2 ;;
  esac
  echo "plant: $what"
  echo "command: ${gate[*]}"
  echo
  if out=$("${gate[@]}" 2>&1); then
    echo "$out" | grep -vE '^=== (RUN|PAUSE|CONT)' | sed 's/^/    /'
    echo "    -> PASSED: the plant is not caught"
    status=1
  else
    echo "$out" | grep -vE '^=== (RUN|PAUSE|CONT)|^--- PASS|^PASS$|^ok ' | sed 's/^/    /'
  fi
  echo
  cd "$OUT"
  rm -rf "$dir"
done
exit $status
