package bench

import (
	"slices"
	"testing"

	"cedar/internal/fault"
)

// fuzzNames are the names a fuzzed spec's string fields draw from: every
// name some kind knows, and ones none does.
var fuzzNames = []string{
	"", "pref", "nopref", "cache", "empty", "balanced", "imbalanced", "static", "self", "guided",
	"serial", "kap", "auto", "auto-nosync", "auto-nosync-nopref", "hand", "QCD", "TRACK", "qcd", "turbo",
}

// fuzzPoint draws a point at small sizes from the fuzzer's bytes: a
// machine of 1 to 9 clusters on either fabric (or none), a kind (or none)
// with each field it reads set or left zero by mask, and a stray field it
// does not read on mask's top bit, and one of seven plans. Sizes run
// slightly negative to well inside what simulates in milliseconds.
func fuzzPoint(machine, kindIdx uint8, mask uint16, n, x, y int8, plan, module uint8) Point {
	names := make([]string, 0, len(kinds)+1)
	for name := range kinds {
		names = append(names, name)
	}
	slices.Sort(names)
	names = append(names, "sort")

	ms := MachineSpec{Name: "m", Clusters: int(machine % 10), Fabric: []string{"", "crossbar", "omega", "torus"}[machine/10%4]}
	if machine/40%2 == 1 {
		ms.Scaled = 1 + int(machine%3)
	}
	ws := WorkloadSpec{Name: "w", Kind: names[int(kindIdx)%len(names)]}
	name := func(v int8) string { return fuzzNames[int(uint8(v))%len(fuzzNames)] }
	set := map[string]func(){
		"n": func() { ws.N = int(n) % 64 }, "variant": func() { ws.Variant = name(x) },
		"sweeps": func() { ws.Sweeps = int(y) % 3 }, "iters": func() { ws.Iters = int(y) % 3 },
		"bw": func() { ws.BW = int(y) % 16 }, "max_ces": func() { ws.MaxCEs = int(x) % 40 },
		"ces": func() { ws.CEs = int(x) % 40 }, "gap": func() { ws.Gap = int(y) % 50 },
		"stride": func() { ws.Stride = int(y) % 40 }, "code": func() { ws.Code = name(y) },
		"sched": func() { ws.Sched = name(y) }, "block": func() { ws.Block = int(y) * 5 },
		"nosync": func() { ws.NoSync = true },
	}
	fields := make([]string, 0, len(set))
	for f := range set {
		fields = append(fields, f)
	}
	slices.Sort(fields)
	if k, ok := kinds[ws.Kind]; ok {
		for i, f := range k.reads {
			if mask&(1<<i) != 0 {
				set[f]()
			}
		}
	}
	if mask&(1<<15) != 0 {
		set[fields[int(mask>>8)%len(fields)]]()
	}

	pt := Point{Machine: ms, Workload: ws}
	// Rates 0 and 1.5 are refused. The admitted ones stay at a few
	// percent: at rates where one CE can exhaust its retries while others
	// wait for it at a barrier, the waiters spin until the kernels'
	// 2^40-cycle limit, a run that ends only after hours — a defect of
	// how a degraded run ends, not of what Validate admits.
	mod, rate := int(module%40), []float64{0, 0.01, 0.03, 0.05, 1.5}[module/40%5]
	switch plan % 7 {
	case 1:
		pt.Plan = fault.DemoPlan()
	case 2:
		pt.Plan = &fault.Plan{Seed: 1, Faults: []fault.Fault{{Kind: fault.BankDead, Module: mod}}}
	case 3:
		// Every module up to mod dead: all of a small machine's, past them
		// one it lacks.
		pt.Plan = &fault.Plan{Seed: 2}
		for i := 0; i <= mod; i++ {
			pt.Plan.Faults = append(pt.Plan.Faults, fault.Fault{Kind: fault.BankDead, Module: i})
		}
	case 4:
		pt.Plan = &fault.Plan{Seed: 3, Faults: []fault.Fault{{Kind: fault.PFUNack, Module: mod - 1, Rate: rate}}}
	case 5:
		pt.Plan = &fault.Plan{Seed: 4, Faults: []fault.Fault{{Kind: fault.BankStall, Module: mod - 1, Extra: 7, Rate: rate}}}
	case 6:
		pt.Plan = &fault.Plan{Seed: 5, Faults: []fault.Fault{{Kind: fault.LinkDrop, Fabric: "rev", Stage: -1, Line: -1, Rate: rate}}}
	}
	return pt
}

// FuzzPointValidate is Point.Validate's contract: a point it admits runs
// — Point.Run returns no error but a degradation under its plan, and
// never panics — so no rule a run can fail on is missing from it. The
// seeds are one admitted point of each kind and a refused one of each
// rule class; under -fuzz it draws points at small sizes
// (fuzzPoint), so each execution simulates in milliseconds.
func FuzzPointValidate(f *testing.F) {
	// The kinds by index: banded 0, cg 1, latency 2, membw 3, perfect 4,
	// prefblock 5, rank 6, startup 7, trimat 8, vectorload 9, xdoall 10,
	// and 11 is no kind.
	f.Add(uint8(0), uint8(0), uint16(3), int8(21), int8(0), int8(7), uint8(0), uint8(0))     // banded n 21 bw 7
	f.Add(uint8(2), uint8(1), uint16(3), int8(16), int8(0), int8(1), uint8(1), uint8(0))     // cg n 16, 2 clusters, demo
	f.Add(uint8(0), uint8(2), uint16(3), int8(40), int8(0), int8(9), uint8(4), uint8(46))    // latency under 1% NACKs
	f.Add(uint8(1), uint8(3), uint16(7), int8(32), int8(8), int8(2), uint8(2), uint8(5))     // membw 8 CEs, 1 cluster, a dead module
	f.Add(uint8(0), uint8(4), uint16(3), int8(0), int8(11), int8(16), uint8(0), uint8(0))    // perfect QCD kap
	f.Add(uint8(0), uint8(5), uint16(3), int8(24), int8(0), int8(4), uint8(5), uint8(120))   // prefblock block 20 under 5% stalls
	f.Add(uint8(10), uint8(6), uint16(3), int8(16), int8(2), int8(0), uint8(6), uint8(89))   // rank nopref on the crossbar under 3% drops
	f.Add(uint8(0), uint8(7), uint16(0), int8(0), int8(0), int8(0), uint8(0), uint8(0))      // startup
	f.Add(uint8(0), uint8(8), uint16(1), int8(12), int8(0), int8(0), uint8(1), uint8(0))     // trimat, demo
	f.Add(uint8(41), uint8(9), uint16(3), int8(64), int8(0), int8(1), uint8(0), uint8(0))    // vectorload, scaled
	f.Add(uint8(0), uint8(10), uint16(31), int8(20), int8(5), int8(9), uint8(0), uint8(0))   // xdoall balanced guided nosync
	f.Add(uint8(0), uint8(0), uint16(3), int8(5), int8(0), int8(11), uint8(0), uint8(0))     // refused: banded n 5 < bw 11
	f.Add(uint8(0), uint8(0), uint16(2), int8(0), int8(0), int8(4), uint8(0), uint8(0))      // refused: banded bw 4
	f.Add(uint8(2), uint8(3), uint16(2), int8(0), int8(32), int8(0), uint8(0), uint8(0))     // refused: membw 32 CEs on 2 clusters
	f.Add(uint8(9), uint8(8), uint16(0), int8(0), int8(0), int8(0), uint8(0), uint8(0))      // refused: 72 CEs on 64 ports
	f.Add(uint8(30), uint8(8), uint16(0), int8(0), int8(0), int8(0), uint8(0), uint8(0))     // refused: fabric torus
	f.Add(uint8(0), uint8(8), uint16(0), int8(0), int8(0), int8(0), uint8(2), uint8(35))     // refused: module 35 of 32
	f.Add(uint8(51), uint8(8), uint16(0), int8(0), int8(0), int8(0), uint8(3), uint8(7))     // refused: all 8 modules dead
	f.Add(uint8(0), uint8(8), uint16(1), int8(-3), int8(0), int8(0), uint8(0), uint8(0))     // refused: negative n
	f.Add(uint8(0), uint8(8), uint16(0x8500), int8(0), int8(0), int8(3), uint8(0), uint8(0)) // refused: trimat reads no "code"
	f.Add(uint8(0), uint8(11), uint16(0), int8(0), int8(0), int8(0), uint8(0), uint8(0))     // refused: kind sort
	f.Fuzz(func(t *testing.T, machine, kindIdx uint8, mask uint16, n, x, y int8, plan, module uint8) {
		pt := fuzzPoint(machine, kindIdx, mask, n, x, y, plan, module)
		if pt.Workload.Kind == "perfect" && raceEnabled {
			t.Skip("a Perfect code simulates for seconds under -race")
		}
		if pt.Validate() != nil {
			return
		}
		out, err := pt.Run(nil, false)
		if err != nil {
			t.Fatalf("%+v admitted, then Run: %v", pt, err)
		}
		if out.Status != "ok" && pt.Plan == nil {
			t.Fatalf("%+v admitted healthy, then ended %s: %v", pt, out.Status, out.Err)
		}
	})
}
