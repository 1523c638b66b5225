#!/usr/bin/env bash
# plants.sh SRC OUT [plant...] — plants each bug class this change's gates
# exist for in a fresh copy of the checkout SRC (under OUT), runs the gate
# named beside it and prints what the gate says. No plant name runs all
# five: eagermap zeropage bigpage remap slicequeue. Each plant must fail
# its gate; the script exits 1 if one passes.
set -euo pipefail
SRC=$(cd "$1" && pwd)
OUT=$(mkdir -p "$2" && cd "$2" && pwd)
shift 2
plants=("$@")
[ ${#plants[@]} -gt 0 ] || plants=(eagermap zeropage bigpage remap slicequeue)

# edit FILE PY: apply the Python replacement PY (old, new) to FILE, which
# must contain old exactly once.
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
  eagermap)
    what="NewStore makes the page map at construction, as at the parent"
    edit internal/gmem/store.go 'func NewStore() *Store { return new(Store) }' \
      'func NewStore() *Store { return &Store{pages: make(map[uint64]*[pageWords]int64)} }'
    gate=(go test -count=1 -run 'TestZeroValueStore|TestBuildBudget' -v ./internal/gmem ./internal/core) ;;
  zeropage)
    what="StoreWord makes a page for a zero store into an absent page"
    edit internal/gmem/store.go '		if v == 0 {
			return // the absent page already reads 0
		}
' ''
    gate=(go test -count=1 -run 'TestZeroStoresAllocateNothing|TestStoreSparse|TestDensePointByteBudget' -v ./internal/gmem ./internal/bench) ;;
  bigpage)
    what="a page is 4,096 words (32 KB) again, as at the parent"
    edit internal/gmem/store.go 'const pageWords = 1 << 9' 'const pageWords = 1 << 12'
    gate=(go test -count=1 -run 'TestDensePointByteBudget' -v ./internal/bench) ;;
  remap)
    what="New leaves live nil and remap grows it by append, as at the parent"
    edit internal/gmem/memory.go '		live:       make([]int, 0, p.MemModules),
' ''
    gate=(go test -count=1 -run 'TestNewCostsNoObjectPerModule|TestBuildBudget' -v ./internal/gmem ./internal/core) ;;
  slicequeue)
    what="a CE holds its refused stores in a slice growing by append, as at the parent"
    edit internal/ce/ce.go '	pendingStores     network.WordQueue' '	pendingStores     []*network.Packet'
    edit internal/ce/ce.go '	if c.pendingStores.Head() != nil {
		return now' '	if len(c.pendingStores) > 0 {
		return now'
    sed -i 's/c\.pendingStores\.Head() == nil/len(c.pendingStores) == 0/g' internal/ce/ce.go
    edit internal/ce/ce.go '	if !c.pendingStores.CanAccept(pkt.Words(), storePendingCap*network.WriteReq.WireWords()) {
		return false
	}
	c.pendingStores.Push(pkt)' '	if len(c.pendingStores) >= storePendingCap {
		return false
	}
	c.pendingStores = append(c.pendingStores, pkt)'
    edit internal/ce/ce.go '	for pkt := c.pendingStores.Pop(); pkt != nil; pkt = c.pendingStores.Pop() {
		if !c.fwd.Offer(pkt) {
			c.pendingStores.PushFront(pkt)
			return
		}
		c.storesOutstanding++
	}' '	for len(c.pendingStores) > 0 {
		if !c.fwd.Offer(c.pendingStores[0]) {
			return
		}
		c.storesOutstanding++
		copy(c.pendingStores, c.pendingStores[1:])
		c.pendingStores = c.pendingStores[:len(c.pendingStores)-1]
	}'
    gate=(go test -count=1 -run 'TestRefusedStoresCostNoObject|TestPointRunBudget' -v ./internal/ce ./internal/bench) ;;
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
