// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment and
// reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the study end to end. Sizes are reduced from the paper's
// (documented per benchmark); the shapes are the reproduction target.
// cmd/cedarsim runs the same experiments by catalogue name with formatted
// output and full sizes.
package cedar_test

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"cedar"
	"cedar/internal/tables"
)

// benchTableN is the rank-update matrix order used in benchmarks (the
// paper used 1K; 192 keeps -bench=. affordable while preserving shape).
const benchTableN = 192

// BenchmarkTable1 regenerates the rank-64 update memory study: MFLOPS for
// GM/no-pref, GM/pref and GM/cache on 1-4 clusters.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t1, err := tables.RunTable1(tables.Env{}, benchTableN)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t1.MFLOPS[0][3], "nopref-4cl-MFLOPS")
		b.ReportMetric(t1.MFLOPS[1][3], "pref-4cl-MFLOPS")
		b.ReportMetric(t1.MFLOPS[2][3], "cache-4cl-MFLOPS")
		b.ReportMetric(t1.PrefetchGain()[0], "pref-gain-1cl")
	}
}

// BenchmarkScopeOverhead measures the cost of the observability hub on
// Table 1: the disabled case (nil hub — every scope call short-circuits)
// must track BenchmarkTable1 within noise, and the enabled case bounds
// the price of full instrumentation.
func BenchmarkScopeOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tables.RunTable1(tables.Env{}, benchTableN); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hub := cedar.NewHub()
			t1, err := tables.RunTable1(tables.Env{Hub: hub}, benchTableN)
			if err != nil {
				b.Fatal(err)
			}
			if len(hub.Snapshot()) == 0 {
				b.Fatal("instrumented run registered no metrics")
			}
			b.ReportMetric(t1.MFLOPS[1][3], "pref-4cl-MFLOPS")
		}
	})
}

// BenchmarkTable2 regenerates the global-memory latency and interarrival
// study for the VL, TM, RK and CG kernels on 8/16/32 CEs.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2, err := tables.RunTable2(tables.Env{}, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t2.Latency["RK"][32], "RK-latency-32CE")
		b.ReportMetric(t2.Inter["RK"][32], "RK-interarrival-32CE")
		b.ReportMetric(t2.Latency["VL"][8], "VL-latency-8CE")
	}
}

// benchSuite runs the Perfect suite once per process (three
// representative codes keep -bench=. tractable; cedarsim t3 runs all
// thirteen) and shares the result across the table benchmarks, which
// differ only in how they analyze it.
var (
	benchSuiteOnce sync.Once
	benchSuiteRes  *tables.SuiteResult
	benchSuiteErr  error
)

func benchSuite(b *testing.B) *tables.SuiteResult {
	b.Helper()
	benchSuiteOnce.Do(func() {
		codes := cedar.PerfectCodes()
		var sel []cedar.PerfectProfile
		for _, c := range codes {
			switch c.Name {
			case "ARC2D", "QCD", "SPICE":
				sel = append(sel, c)
			}
		}
		benchSuiteRes, benchSuiteErr = tables.RunSuite(tables.Env{}, sel)
	})
	if benchSuiteErr != nil {
		b.Fatal(benchSuiteErr)
	}
	return benchSuiteRes
}

// BenchmarkTable3 regenerates the Perfect Benchmarks speedup/MFLOPS table
// (three-code slice: the high performer, the RNG-bound code, and the
// suite's poor performer).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		t3 := tables.BuildTable3(s)
		for _, r := range t3.Rows {
			switch r.Code {
			case "ARC2D":
				b.ReportMetric(r.AutoSpeedup, "ARC2D-auto-speedup")
			case "QCD":
				b.ReportMetric(r.AutoSpeedup, "QCD-auto-speedup")
			case "SPICE":
				b.ReportMetric(r.MFLOPS, "SPICE-MFLOPS")
			}
		}
	}
}

// BenchmarkTable4 regenerates the hand-optimization results.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		for _, r := range tables.BuildTable4(s) {
			if r.Code == "QCD" {
				b.ReportMetric(r.Improvement, "QCD-hand-improvement")
			}
		}
	}
}

// BenchmarkTable5 regenerates the instability analysis.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		t5 := tables.BuildTable5(s)
		b.ReportMetric(t5.In["Cedar"][0], "Cedar-In-e0")
		b.ReportMetric(t5.In["YMP/8"][0], "YMP-In-e0")
	}
}

// BenchmarkTable6 regenerates the restructuring-efficiency bands.
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		t6 := tables.BuildTable6(s)
		b.ReportMetric(float64(t6.CedarHigh), "Cedar-high-codes")
		b.ReportMetric(float64(t6.YMPUnacc), "YMP-unacceptable-codes")
	}
}

// BenchmarkFigure3 regenerates the Cedar-vs-YMP efficiency scatter.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		f := tables.BuildFigure3(s)
		b.ReportMetric(float64(f.CedarUnacc), "Cedar-unacceptable")
		b.ReportMetric(float64(f.YMPHigh), "YMP-high")
	}
}

// BenchmarkPPT4 regenerates the scalability study (reduced sweep).
func BenchmarkPPT4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := tables.RunPPT4(tables.Env{}, false)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := res.Cedar32Range()
		b.ReportMetric(lo, "CG-32CE-min-MFLOPS")
		b.ReportMetric(hi, "CG-32CE-max-MFLOPS")
	}
}

// BenchmarkDoallOverheads regenerates the §3.2 runtime costs.
func BenchmarkDoallOverheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ov, err := tables.RunOverheads(tables.Env{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ov.XDoallStartupUS, "XDOALL-startup-us")
		b.ReportMetric(ov.FetchNoSyncUS, "fetch-library-us")
		b.ReportMetric(ov.FetchCedarSyncUS, "fetch-cedarsync-us")
	}
}

// BenchmarkNetworkAblation supports the [Turn93] claim: contention
// degradation is an implementation constraint (queue depth), not the
// network type.
func BenchmarkNetworkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := tables.RunNetworkAblation(tables.Env{}, benchTableN)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MFLOPS, "omega-2w-MFLOPS")
		b.ReportMetric(rows[1].MFLOPS, "omega-8w-MFLOPS")
		b.ReportMetric(rows[2].MFLOPS, "crossbar-MFLOPS")
	}
}

// BenchmarkPrefetchBlock isolates the prefetch block-size design choice.
func BenchmarkPrefetchBlock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := tables.RunPrefetchBlockAblation(tables.Env{}, benchTableN)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MFLOPS, "noprefetch-MFLOPS")
		b.ReportMetric(rows[1].MFLOPS, "block32-MFLOPS")
		b.ReportMetric(rows[len(rows)-1].MFLOPS, "block512-MFLOPS")
	}
}

// BenchmarkSchedulingAblation compares static, self- and guided
// scheduling on balanced and imbalanced loops.
func BenchmarkSchedulingAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := tables.RunSchedulingAblation(tables.Env{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Workload == "imbalanced" && r.CedarSync {
				switch r.Policy {
				case "static":
					b.ReportMetric(float64(r.Cycles), "imbalanced-static-cycles")
				case "guided":
					b.ReportMetric(float64(r.Cycles), "imbalanced-guided-cycles")
				}
			}
		}
	}
}

// BenchmarkMemBW runs the [GJTV91] characterization at full machine width.
func BenchmarkMemBW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bw, err := tables.RunMemBW(tables.Env{}, 2048)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bw.PeakMBps(), "peak-MBps")
	}
}

// BenchmarkScaledCedar probes PPT5: the same kernels on an 8-cluster
// Cedar-like machine with a proportionally scaled network and memory.
func BenchmarkScaledCedar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := tables.RunScaledCedar(tables.Env{}, benchTableN)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].RKMFLOPS, "RK-4cl-MFLOPS")
		b.ReportMetric(rows[len(rows)-1].RKMFLOPS, "RK-8cl-MFLOPS")
	}
}

// BenchmarkSuiteParallel regenerates the kernel-level report sections at
// 1 and 4 workers; the ratio of the two timings is the cedarfleet
// speedup (≈1 on a single-core host; the 4-core acceptance target is
// ≥2×).
func BenchmarkSuiteParallel(b *testing.B) {
	for _, jobs := range []int{1, 4} {
		b.Run(fmt.Sprintf("jobs%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := cedar.WriteReport(io.Discard, cedar.ReportConfig{
					Names: tables.Kernels,
					Sizes: tables.Sizes{RankN: benchTableN},
					Env:   cedar.Env{Jobs: jobs},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelCG measures the CG kernel itself at a PPT4 point.
func BenchmarkKernelCG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := cedar.NewMachine(cedar.DefaultParams(), cedar.Options{})
		res, err := cedar.CG(m, cedar.CGConfig{N: 16 << 10, Iters: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MFLOPS, "MFLOPS")
	}
}

// BenchmarkSimulatorThroughput measures the simulator itself: simulated
// machine cycles per host second on the prefetched rank update.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var cycles int64
	for i := 0; i < b.N; i++ {
		m := cedar.NewMachine(cedar.DefaultParams(), cedar.Options{})
		res, err := cedar.RankUpdate(m, 128, cedar.RKPref)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}
