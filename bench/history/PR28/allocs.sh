#!/usr/bin/env bash
# allocs.sh OUT — the per-site heap-object table of cedarperf's four engine
# workloads. Run it from the root of the checkout to measure. It drops a
# probe test into internal/bench (removed again on exit), runs each
# workload's points once untimed, then once more with every allocation
# sampled (runtime.MemProfileRate = 1), and prints objects/op and KB/op
# (MemStats deltas over the sampled pass ÷ points, to two and three
# decimals, so a sub-KB move shows) and the top allocation
# sites of that pass twice: by object count (go tool pprof -sample_index=
# alloc_objects -top), the sites behind mallocs_per_op, then by bytes
# (-sample_index=alloc_space), the sites behind alloc_kb_per_op, and for
# each of the top three by bytes its callers and callees (go tool pprof
# -peek), which name the body or constructor behind a generic site such as
# slices.Grow. It first
# prints what core.New costs in objects and KB on Cedar and Cedar64, with
# and without a hub, and in objects per CE and per cluster (from Cedar at
# 2 CEs per cluster and at 2 clusters). The points are cedarperf's, at full scale;
# suite runs its eleven Perfect proxies serially, so it prints the same
# objects as a jobs-2 pass but no timing.
set -euo pipefail
OUT=$(mkdir -p "$1" && cd "$1" && pwd)
probe=internal/bench/zz_allocs_probe_test.go
trap 'rm -f "$probe"' EXIT
cat > "$probe" <<'GO'
package bench

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"

	"cedar/internal/core"
	"cedar/internal/fault"
	"cedar/internal/params"
	"cedar/internal/perfect"
	"cedar/internal/scope"
)

func init() { runtime.MemProfileRate = 0 }

func zzOps(workload string) []func() {
	spec := func(name, machine, kind string, w WorkloadSpec, faults bool) func() {
		ms := MachineSpec{Name: machine}
		switch machine {
		case "cedar-xbar":
			ms.Fabric = "crossbar"
		case "cedar16":
			ms.Scaled = 16
		case "cedar64":
			ms.Scaled = 64
		}
		w.Name, w.Kind = name, kind
		var plan *fault.Plan
		if faults {
			plan = fault.DemoPlan()
		}
		return func() {
			if _, err := RunSpec(ms, w, plan, nil); err != nil {
				panic(err)
			}
		}
	}
	var ops []func()
	switch workload {
	case "dense":
		for _, v := range []string{"pref", "nopref", "cache"} {
			ops = append(ops, spec("rank48-"+v, "cedar", "rank", WorkloadSpec{N: 48, Variant: v}, false))
		}
		ops = append(ops,
			spec("vl2k", "cedar", "vectorload", WorkloadSpec{N: 2048, Sweeps: 1}, false),
			spec("cg128", "cedar", "cg", WorkloadSpec{N: 128, Iters: 2}, false),
			spec("trimat64", "cedar", "trimat", WorkloadSpec{N: 64}, false),
			spec("banded256-bw11", "cedar", "banded", WorkloadSpec{N: 256, BW: 11}, false),
			spec("membw32", "cedar", "membw", WorkloadSpec{N: 2048, CEs: 32, Stride: 1}, false),
			spec("rank32-pref-xbar", "cedar-xbar", "rank", WorkloadSpec{N: 32, Variant: "pref"}, false),
			spec("rank32-pref-faults", "cedar", "rank", WorkloadSpec{N: 32, Variant: "pref"}, true))
	case "sparse":
		for _, gap := range []int{0, 100, 1000} {
			for _, n := range []int{4000, 8000, 16000} {
				ops = append(ops, spec(fmt.Sprintf("lat-gap%d-n%d", gap, n), "cedar", "latency", WorkloadSpec{N: n, Gap: gap}, false))
			}
		}
		ops = append(ops, spec("membw1", "cedar", "membw", WorkloadSpec{N: 16384, CEs: 1, Stride: 1}, false))
	case "sharded":
		ops = append(ops,
			spec("cedar64-vl128", "cedar64", "vectorload", WorkloadSpec{N: 128, Sweeps: 1}, false),
			spec("cedar16-vl512", "cedar16", "vectorload", WorkloadSpec{N: 512, Sweeps: 1}, false),
			spec("cedar16-rank32-pref", "cedar16", "rank", WorkloadSpec{N: 32, Variant: "pref"}, false))
	case "suite":
		for _, prof := range []perfect.Profile{perfect.QCD(), perfect.TRACK()} {
			prof.Reps *= 2
			specs := []perfect.Spec{{Variant: perfect.Serial}, {Variant: perfect.KAP}, {Variant: perfect.Auto},
				{Variant: perfect.Auto, NoSync: true}, {Variant: perfect.Auto, NoSync: true, NoPref: true}}
			if prof.Name == "QCD" {
				specs = append(specs, perfect.Spec{Variant: perfect.Hand})
			}
			for _, s := range specs {
				ops = append(ops, func() {
					if _, err := perfect.Run(params.Default(), prof, s); err != nil {
						panic(err)
					}
				})
			}
		}
	}
	return ops
}

// zzBuild is what one core.New of p allocates under a hub as bench
// points build (hub false: none), in objects and bytes, each the least of
// three, on one P.
func zzBuild(p params.Machine, hub bool) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	objects, bytes = math.MaxUint64, math.MaxUint64
	for try := 0; try < 3; try++ {
		var h *scope.Hub
		if hub {
			h = scope.NewHub()
			h.SetTraceCap(0)
		}
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		if _, err := core.New(p, core.Options{Scope: h}); err != nil {
			panic(err)
		}
		runtime.ReadMemStats(&b)
		objects = min(objects, b.Mallocs-a.Mallocs)
		bytes = min(bytes, b.TotalAlloc-a.TotalAlloc)
	}
	return objects, bytes
}

func TestZZBuild(t *testing.T) {
	twoCEs, twoClusters := params.Default(), params.Default()
	twoCEs.CEsPerCluster, twoClusters.Clusters = 2, 2
	objects := func(p params.Machine, hub bool) uint64 { n, _ := zzBuild(p, hub); return n }
	for _, hub := range []bool{false, true} {
		full, fullBytes := zzBuild(params.Default(), hub)
		wide, wideBytes := zzBuild(params.Cedar64(), hub)
		perCE := float64(full-objects(twoCEs, hub)) / 24
		perCluster := float64(full-objects(twoClusters, hub))/2 - 8*perCE
		fmt.Printf("core.New hub=%v: Cedar %d objects (%.1f KB), Cedar64 %d (%.1f KB); per CE %.1f, per cluster (beside its CEs) %.1f\n",
			hub, full, float64(fullBytes)/1024, wide, float64(wideBytes)/1024, perCE, perCluster)
	}
}

func TestZZAllocs(t *testing.T) {
	w := os.Getenv("ALLOCS_WORKLOAD")
	ops := zzOps(w)
	for _, op := range ops {
		op()
	}
	runtime.GC()
	runtime.MemProfileRate = 1
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for _, op := range ops {
		op()
	}
	runtime.ReadMemStats(&b)
	runtime.MemProfileRate = 0
	runtime.GC()
	runtime.GC()
	f, err := os.Create(os.Getenv("ALLOCS_PROFILE"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		t.Fatal(err)
	}
	n := uint64(len(ops))
	fmt.Printf("%s: %d points, %.2f objects/op, %.3f KB/op\n", w, n,
		float64(b.Mallocs-a.Mallocs)/float64(n), float64(b.TotalAlloc-a.TotalAlloc)/float64(n)/1024)
}
GO
go test -c -o "$OUT/bench.test" ./internal/bench
echo "commit $(git rev-parse --short HEAD)$(git diff --quiet HEAD -- internal || echo '+worktree'), $(go version | cut -d' ' -f3), GOMAXPROCS=$(nproc)"
echo "command: bash bench/history/PR28/allocs.sh OUT"
echo
"$OUT/bench.test" -test.run '^TestZZBuild$' -test.count=1 | grep '^core.New'
for w in dense sparse sharded suite; do
  echo
  ALLOCS_WORKLOAD=$w ALLOCS_PROFILE="$OUT/$w.mprof" "$OUT/bench.test" -test.run '^TestZZAllocs$' -test.count=1 | grep 'objects/op'
  echo "by objects:"
  go tool pprof -sample_index=alloc_objects -top -nodecount=30 "$OUT/bench.test" "$OUT/$w.mprof" 2>/dev/null | sed -n '/^ *flat/,$p'
  echo "by bytes:"
  go tool pprof -sample_index=alloc_space -top -nodecount=20 "$OUT/bench.test" "$OUT/$w.mprof" 2>/dev/null | sed -n '/^ *flat/,$p'
  echo "callers of the top three by bytes:"
  go tool pprof -sample_index=alloc_space -top -nodecount=3 "$OUT/bench.test" "$OUT/$w.mprof" 2>/dev/null |
    sed -n '/^ *flat/,$p' | tail -n +2 |
    sed -E 's/^ *([^ ]+ +){5}//; s/ \(inline\)$//' |
    while IFS= read -r fn; do
      re=$(printf '%s' "$fn" | sed 's/[][\.*^$(){}+?|]/\\&/g')
      go tool pprof -sample_index=alloc_space -peek "^$re\$" "$OUT/bench.test" "$OUT/$w.mprof" 2>/dev/null |
        sed -n '/^ *flat/,$p' | grep -v -- '^-*+-*$'
    done
done
