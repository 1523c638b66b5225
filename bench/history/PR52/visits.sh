#!/usr/bin/env bash
# visits.sh SRC OUT — counts what the engine's tick pass visits on
# cedarperf's four engine workloads, for the checkout SRC. It copies SRC's
# files into OUT/src, patches counters into that copy's internal/sim/sim.go
# (no hook exists in the program itself), drops a probe test into the
# copy's internal/bench that runs each workload's points once (the point
# list of bench/history/PR28/allocs.sh), and prints per workload: executed
# cycles (a pass ticked something), jumped cycles (FastForwarded's count),
# components visited by the pass and components ticked, each in total and
# per executed cycle. On the wheel, visited = ticked + stale posts dropped;
# on the per-component scan (before the wheel), visited is every component
# on every executed cycle. It understands both shapes of sim.go and exits 2
# on any other. Needs go and python3; takes about 20 s.
set -euo pipefail
SRC=$(cd "$1" && pwd)
OUT=$(mkdir -p "$2" && cd "$2" && pwd)
HERE=$(cd "$(dirname "$0")" && pwd)
dir="$OUT/src"
rm -rf "$dir" && mkdir -p "$dir"
(cd "$SRC" && git ls-files -co --exclude-standard -z | xargs -0 cp --parents -t "$dir")
cd "$dir"

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

sim=internal/sim/sim.go
if grep -q 'func (e \*Engine) advance(' $sim; then
  shape="bitmap wheel"
  edit $sim '			w &= w - 1' '			w &= w - 1
			Visits.Visited++'
  edit $sim '			e.entries[i].c.Tick(c)' '			Visits.Ticked++
			e.entries[i].c.Tick(c)'
  edit $sim '	e.migrate()
	return ran' '	e.migrate()
	if ran {
		Visits.Executed++
	} else {
		Visits.Jumped++
	}
	return ran'
  edit $sim '			e.skipped += t - e.cycle' '			e.skipped += t - e.cycle
			Visits.Jumped += t - e.cycle'
elif grep -q 'soonest := Never' $sim; then
  shape="scan of every component"
  edit $sim '	soonest := Never
	for i, s := range e.sched {' '	soonest := Never
	Visits.Executed++
	for i, s := range e.sched {
		Visits.Visited++'
  edit $sim '		e.components[i].Tick(c)' '		Visits.Ticked++
		e.components[i].Tick(c)'
  edit $sim '	e.skipped += t - e.cycle' '	e.skipped += t - e.cycle
	Visits.Jumped += t - e.cycle'
else
  echo "visits.sh: $sim has neither known shape" >&2
  exit 2
fi
cat >> $sim <<'GO'

// Visits counts the tick pass's work for bench/history/PR52/visits.sh.
var Visits struct{ Executed, Jumped, Visited, Ticked int64 }
GO

# The probe: PR28's point list, then one pass per workload under the counters.
sed -n '/^package bench/,/^GO$/p' "$HERE/../PR28/allocs.sh" | sed '$d' > internal/bench/zz_visits_test.go
sed -i 's#"cedar/internal/scope"#"cedar/internal/scope"\n\t"cedar/internal/sim"#' internal/bench/zz_visits_test.go
cat >> internal/bench/zz_visits_test.go <<'GO'

func TestZZVisits(t *testing.T) {
	for _, w := range []string{"dense", "sparse", "sharded", "suite"} {
		sim.Visits.Executed, sim.Visits.Jumped, sim.Visits.Visited, sim.Visits.Ticked = 0, 0, 0, 0
		for _, op := range zzOps(w) {
			op()
		}
		v, x := sim.Visits, float64(sim.Visits.Executed)
		fmt.Printf("%-8s executed %10d  jumped %11d  visited %11d (%6.2f per executed cycle)  ticked %11d (%6.2f)  dropped %9d\n",
			w, v.Executed, v.Jumped, v.Visited, float64(v.Visited)/x, v.Ticked, float64(v.Ticked)/x, v.Visited-v.Ticked)
	}
}
GO
echo "commit $(cd "$SRC" && git rev-parse --short HEAD)$(cd "$SRC" && git diff --quiet HEAD -- internal || echo '+worktree'), pass shape: $shape, $(go version | cut -d' ' -f3)"
echo "command: bash bench/history/PR52/visits.sh SRC OUT"
echo "dropped = visited - ticked: on the wheel, the stale posts the pass dropped; on the scan, the components it read and passed over"
go test -count=1 -run '^TestZZVisits$' -v ./internal/bench | grep -E '^(dense|sparse|sharded|suite) '
