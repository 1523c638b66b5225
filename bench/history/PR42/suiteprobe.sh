#!/usr/bin/env bash
# suiteprobe.sh SRC — which of cedarperf's eleven suite points a
# mallocs_per_op change comes from. It drops a probe test into
# SRC/internal/perfect (removed again on exit), runs QCD and TRACK through
# each Perfect version at cedarperf's slice length (twice the profile's
# Reps) and prints one line per point: simcycles, seconds and MFLOPS
# (which must be identical on both sides of a host-only change), then
# mallocs and KB (runtime.MemStats deltas over the run). Run it on a
# checkout of the parent and on the change and compare the lines (~5 s
# each). For who allocates, rerun the printed go test command with
# -memprofilerate 1 -memprofile FILE and read FILE with go tool pprof
# -sample_index=alloc_objects -top.
set -euo pipefail
cd "$1"
probe=internal/perfect/zz_suite_probe_test.go
trap 'rm -f "$probe"' EXIT
cat > "$probe" <<'GO'
package perfect

import (
	"runtime"
	"testing"

	"cedar/internal/params"
)

func TestZZSuiteProbe(t *testing.T) {
	for _, prof := range []Profile{QCD(), TRACK()} {
		prof.Reps *= 2 // cedarperf's slice length
		for _, pt := range []struct {
			name string
			spec Spec
		}{
			{"serial", Spec{Variant: Serial}}, {"kap", Spec{Variant: KAP}},
			{"auto", Spec{Variant: Auto}},
			{"auto-nosync", Spec{Variant: Auto, NoSync: true}},
			{"auto-nosync-nopref", Spec{Variant: Auto, NoSync: true, NoPref: true}},
			{"hand", Spec{Variant: Hand}}, // QCD only: TRACK has no hand version
		} {
			if pt.name == "hand" && prof.Name != "QCD" {
				continue
			}
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			out, err := Run(params.Default(), prof, pt.spec)
			runtime.ReadMemStats(&b)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s-%s simcycles=%d seconds=%v mflops=%v mallocs=%d kb=%d", prof.Name, pt.name,
				out.SimCycles, out.Seconds, out.MFLOPS, b.Mallocs-a.Mallocs, (b.TotalAlloc-a.TotalAlloc)>>10)
		}
	}
}
GO
echo "go test -count=1 -run TestZZSuiteProbe -v ./internal/perfect"
go test -count=1 -run TestZZSuiteProbe -v ./internal/perfect | grep -E 'simcycles=|^(ok|FAIL)'
