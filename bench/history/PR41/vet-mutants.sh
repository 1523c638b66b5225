#!/usr/bin/env bash
# vet-mutants.sh SRC OUT [plant...] — the plant study behind "cedarvet
# re-earns its place" (EXPERIMENTS.md, "cedarvet — what each check has
# caught"). Copies the checkout SRC to OUT/tree, plants one bug of each
# analyzer's class at a time there, reverts it, and prints per plant:
#
#   lint    what the static checks report: cedarvet ./... where SRC still
#           has cmd/cedarvet (the parent), the tier-1 test
#           TestModuleIsLintClean otherwise;
#   tier-1  the tests go test ./... fails, the lint test skipped, so the
#           column says what the rest of tier-1 catches;
#   race    the same for go test -race ./..., for the plants marked race
#           (the concurrency plants and one plant of each kept rule);
#   gates   for the hot-path allocation plants that a healthy run takes,
#           the allocation gates alone (TestSteadyStateAllocs*, Test*Budget,
#           Test*CostsNoObject*): a subset of tier-1, so a failure there is
#           a tier-1 failure;
#   objects what TestFaultRecoveryCostsNoObjectPerFault measures (PASSES
#           newgate only: 1 and 4 sweeps per fabric), clean tree first.
#
# The passes use go's test cache: one copy is planted and reverted in
# place, so a plant re-runs only the packages it reaches. Restrict the
# plants by naming them, and the passes with PASSES (default "lint tier1
# race"; "vet" only compiles each plant's package, "newgate" adds the
# objects line). Needs jq. On 2 CPUs the default passes take ≈55 minutes
# for all 27 plants.
#
#   bash bench/history/PR41/vet-mutants.sh . /tmp/vm > bench/history/PR41/vet-mutants.txt
#   PASSES=lint bash bench/history/PR41/vet-mutants.sh ../parent /tmp/vp     # cedarvet's verdicts
#   PASSES=tier1 bash bench/history/PR41/vet-mutants.sh ../parent /tmp/vp pfu-expire pfu-reissue gmem-nack omega-jam omega-drop pfu-depth-512
#   PASSES=newgate bash bench/history/PR41/vet-mutants.sh . /tmp/vn pfu-expire pfu-reissue gmem-nack omega-jam omega-drop
set -euo pipefail
SRC=$(cd "$1" && pwd); mkdir -p "$2"; OUT=$(cd "$2" && pwd); shift 2
only=" $* "
passes=" ${PASSES:-lint tier1 race} "
tree="$OUT/tree"
rm -rf "$tree"; mkdir -p "$tree"
tar -c -C "$SRC" --exclude=./.git --exclude=./artifacts . | tar -x -C "$tree"
cd "$tree"

lintskip='^TestModuleIsLintClean$'
gates='^(TestSteadyStateAllocs.*|Test.*Budget|Test.*CostsNoObject.*)$'
vet=""
if [ -d cmd/cedarvet ]; then
  vet="$OUT/cedarvet"
  go build -o "$vet" ./cmd/cedarvet
fi

# failed JSON — one "package Test" line per failing test of a go test
# -json stream, or each failing package when no test failed (a build
# failure).
failed() {
  local tests
  tests=$(jq -Rr 'fromjson? | select(.Action == "fail" and .Test != null) | "\(.Package) \(.Test)"' "$1" | sort -u)
  if [ -n "$tests" ]; then
    echo "$tests"
  else
    jq -Rr 'fromjson? | select(.Action == "fail") | "\(.Package) (package fails)"' "$1" | sort -u
  fi
}

# verdict LABEL go-test-args... — runs one pass and prints its failures.
verdict() {
  local label=$1; shift
  if go test -json "$@" > "$OUT/pass.json" 2>&1; then
    echo "$label PASS"
  else
    failed "$OUT/pass.json" | sed "s/^/$label FAIL /"
  fi
}

newgate() {
  { go test -count=1 -run '^TestFaultRecoveryCostsNoObjectPerFault$' -v ./internal/bench 2>&1 || true; } |
    sed -nE 's/^[[:space:]]+budget_test\.go:[0-9]+: (.*objects at 1 sweep.*)/objects \1/p'
}

lintverdict() {
  local found
  if [ -n "$vet" ]; then
    found=$("$vet" ./... 2>/dev/null || true)
  else
    found=$(go test -count=1 -run "$lintskip" ./internal/lint 2>&1 |
      sed -nE 's/^[[:space:]]+([^[:space:]]+\.go:[0-9]+:[0-9]+: [a-z]+: .*)/\1/p' || true)
  fi
  if [ -n "$found" ]; then
    echo "$found" | sed 's/^/lint   /'
  else
    echo "lint   (nothing)"
  fi
}

# Warm the caches on the clean tree, so each plant re-runs only what it
# reaches. A pass that fails here would fail every plant: stop.
case $passes in *" tier1 "*)
  go test -json -skip "$lintskip" ./... > "$OUT/pass.json" 2>&1 || { failed "$OUT/pass.json"; echo "clean tree fails tier-1" >&2; exit 1; }
  go test -json -run "$gates" ./... > "$OUT/pass.json" 2>&1 || { failed "$OUT/pass.json"; echo "clean tree fails the gates" >&2; exit 1; } ;;
esac
case $passes in *" race "*)
  go test -race -json ./... > "$OUT/pass.json" 2>&1 || { failed "$OUT/pass.json"; echo "clean tree fails -race" >&2; exit 1; } ;;
esac
case $passes in *" newgate "*) printf '=== clean tree\n'; newgate ;; esac

# plant NAME KIND RULE FILE PERL — KIND is full (lint + tier-1), race
# (full + the race pass) or gates (lint + the allocation gates).
plant() {
  local name=$1 kind=$2 rule=$3 file=$4 expr=$5
  case $only in "  ") ;; *" $name "*) ;; *) return 0 ;; esac
  cp "$file" "$OUT/orig"
  perl -0pi -e "$expr" "$file"
  if cmp -s "$OUT/orig" "$file"; then
    echo "$name: substitution did not apply" >&2; exit 1
  fi
  printf '\n=== %s [%s] %s\n' "$name" "$rule" "$file"
  case $passes in *" vet "*) go vet "./$(dirname "$file")" ;; esac
  case $passes in *" lint "*) lintverdict ;; esac
  case $passes in *" tier1 "*)
    if [ "$kind" = gates ]; then
      verdict "gates " -run "$gates" ./...
    else
      verdict "tier-1" -skip "$lintskip" ./...
    fi ;;
  esac
  case $passes in *" race "*)
    if [ "$kind" = race ]; then verdict "race  " -race ./...; fi ;;
  esac
  case $passes in *" newgate "*) newgate ;; esac
  cp "$OUT/orig" "$file"
}

hot='$&\n\thotSink = new(int64)'
sink='\nvar hotSink *int64\n'

# nondeterminism's clock, goroutine and select rules (deleted).
plant report-clock full "nondeterminism: wall clock" internal/tables/report.go \
  's~"# Cedar evaluation report\\n\\n"\)~"# Cedar evaluation report (%s)\\n\\n", time.Now().Format(time.RFC3339))~; s~"io"\n~"io"\n\t"time"\n~'
plant gmem-rand full "nondeterminism: global rand in the model" internal/gmem/memory.go \
  's~m\.inj\.BankStall\(i, cycle\)\n~m.inj.BankStall(i, cycle) + int64(rand.Intn(2))\n~; s~"math/bits"\n~"math/bits"\n\t"math/rand"\n~'
plant sim-goroutines full "nondeterminism: goroutine" internal/sim/sim.go \
  's~(\t\tif s != nil \{\n)\t\t\te\.setWake\(i, s\.NextWakeup\(e\.cycle\)\)\n\t\t\}\n\t\}\n~$1\t\t\twg.Add(1)\n\t\t\tgo func() { defer wg.Done(); e.setWake(i, s.NextWakeup(e.cycle)) }()\n\t\t}\n\t}\n\twg.Wait()\n~; s~(func \(e \*Engine\) pollAll\(\) \{\n)~$1\tvar wg sync.WaitGroup\n~; s~"strings"\n~"strings"\n\t"sync"\n~'
plant gmem-select full "nondeterminism: select" internal/gmem/memory.go \
  's~(\tlat := int64\(m\.p\.MemLatency\) \+ m\.inj\.BankStall\(i, cycle\)\n)~$1\tif a, b := make(chan int64, 1), make(chan int64, 1); true {\n\t\ta <- 0\n\t\tb <- 1\n\t\tselect {\n\t\tcase x := <-a:\n\t\t\tlat += x\n\t\tcase x := <-b:\n\t\t\tlat += x\n\t\t}\n\t}\n~'
plant runall-racy race "nondeterminism: goroutine (a data race)" internal/tables/catalogue.go \
  's~\t\tfor _, pt := range pts \{\n\t\t\tif _, ok := done\[pt\.scope\]; !ok \{\n\t\t\t\ttodo = append\(todo, pt\)\n\t\t\t\}\n\t\t\}\n~\t\tvar wg sync.WaitGroup\n\t\tfor _, pt := range pts {\n\t\t\twg.Add(1)\n\t\t\tgo func() {\n\t\t\t\tdefer wg.Done()\n\t\t\t\tif _, ok := done[pt.scope]; !ok {\n\t\t\t\t\ttodo = append(todo, pt)\n\t\t\t\t}\n\t\t\t}()\n\t\t}\n\t\twg.Wait()\n~; s~"strings"\n~"strings"\n\t"sync"\n~'

# nondeterminism's global-rand rule (kept): a property test that cannot
# replay its failures.
plant sim-test-seed race "nondeterminism: global rand in a test" internal/sim/property_test.go \
  's~rng := rand\.New\(rand\.NewSource\(seed\)\)~rng := rand.New(rand.NewSource(rand.Int63()))~'

# paramhygiene (kept).
plant pfu-depth-512 race "paramhygiene: PFU depth" internal/prefetch/pfu.go \
  's~MaxOutstanding: p\.PFUMaxOutstanding,~MaxOutstanding: 512,~'
plant vm-tlb-300 full "paramhygiene: TLB miss cost" internal/vm/vm.go \
  's~excess \* int64\(p\.TLBMissCost\) \*~excess * 300 *~'
plant membw-768 full "paramhygiene: figure in a Format" internal/tables/membw.go \
  's~\(wiring peak %\.0f MB/s\)\\n", r\.PeakMBps\(\), params\.WiringPeakMBps\)~(wiring peak 768 MB/s)\\n", r.PeakMBps())~; s~\t"cedar/internal/params"\n~~'

# cycleint (kept).
plant core-int32-cycle race "cycleint: cycle narrowed to int32" internal/core/instrument.go \
  's~attr\(s\.BusyCyc, s\.WaitCyc, eng\.Cycle\(\)\)~attr(s.BusyCyc, s.WaitCyc, int64(int32(eng.Cycle())))~'

# errflow (kept).
plant vm-panic full "errflow: undocumented panic" internal/vm/vm.go \
  's~(\tif clusters <= 1 \{\n\t\treturn 0\n\t\}\n)~$1\tif footprintWords < 0 {\n\t\tpanic("vm: negative footprint")\n\t}\n~'
plant vm-exit full "errflow: os.Exit" internal/vm/vm.go \
  's~(\tif clusters <= 1 \{\n\t\treturn 0\n\t\}\n)~$1\tif footprintWords < 0 {\n\t\tos.Exit(2)\n\t}\n~; s~import "cedar/internal/params"~import (\n\t"os"\n\n\t"cedar/internal/params"\n)~'
plant store-sync race "errflow: dropped error" internal/store/store.go \
  's~\t\terr = tmp\.Sync\(\)\n~\t\ttmp.Sync()\n~'

# hotalloc (deleted): the eleven per-tick functions of ../PR24/mutants.sh,
# then the three fault-only branches that only hotalloc reported at the
# parent.
plant sim-stepOnce gates "hotalloc: Engine.stepOnce" internal/sim/sim.go "s~func \\(e \\*Engine\\) stepOnce\\(\\) \\{~$hot~; s~\\z~$sink~"
plant omega-Tick gates "hotalloc: Omega.Tick" internal/network/omega.go "s~func \\(o \\*Omega\\) Tick\\(cycle int64\\) \\{~$hot~; s~\\z~$sink~"
plant crossbar-Tick gates "hotalloc: Crossbar.Tick" internal/network/crossbar.go "s~func \\(c \\*Crossbar\\) Tick\\(cycle int64\\) \\{~$hot~; s~\\z~$sink~"
plant gmem-Tick gates "hotalloc: gmem Memory.Tick" internal/gmem/memory.go "s~func \\(m \\*Memory\\) Tick\\(cycle int64\\) \\{~$hot~; s~\\z~$sink~"
plant cmem-Tick gates "hotalloc: cmem Memory.Tick" internal/cmem/cmem.go "s~func \\(m \\*Memory\\) Tick\\(cycle int64\\) \\{~$hot~; s~\\z~$sink~"
plant cache-Tick gates "hotalloc: Cache.Tick" internal/cache/cache.go "s~func \\(c \\*Cache\\) Tick\\(cycle int64\\) \\{~$hot~; s~\\z~$sink~"
plant ccbus-book gates "hotalloc: Bus.book" internal/ccbus/ccbus.go "s~func \\(b \\*Bus\\) book\\(cycle int64, cost int\\) int64 \\{~$hot~; s~\\z~$sink~"
plant ce-Tick gates "hotalloc: CE.Tick" internal/ce/ce.go "s~func \\(c \\*CE\\) Tick\\(cycle int64\\) \\{~$hot~; s~\\z~$sink~"
plant pfu-Tick gates "hotalloc: PFU.Tick" internal/prefetch/pfu.go "s~func \\(u \\*PFU\\) Tick\\(cycle int64\\) \\{~$hot~; s~\\z~$sink~"
plant pfu-expire full "hotalloc: PFU.expireTimeouts" internal/prefetch/pfu.go "s~func \\(u \\*PFU\\) expireTimeouts\\(cycle int64\\) \\{~$hot~; s~\\z~$sink~"
plant pfu-reissue full "hotalloc: PFU.reissue" internal/prefetch/pfu.go "s~func \\(u \\*PFU\\) reissue\\(cycle int64\\) bool \\{~$hot~; s~\\z~$sink~"
plant gmem-nack full "hotalloc: PFU-NACK branch" internal/gmem/memory.go "s~\\t\\t\\tnack = true\\n~\\t\\t\\tnack = true\\n\\t\\t\\thotSink = new(int64)\\n~; s~\\z~$sink~"
plant omega-jam full "hotalloc: StageJam branch" internal/network/omega.go "s~(\\t+)continue // the output wire is jammed this cycle~\$1hotSink = new(int64)\\n\$1continue~; s~\\z~$sink~"
plant omega-drop full "hotalloc: LinkDrop branch" internal/network/omega.go "s~(\\t+)// The wire eats the packet~\$1hotSink = new(int64)\\n\$1// The wire eats the packet~; s~\\z~$sink~"
