// Benchmarks regenerating every table and figure of the paper's
// evaluation: BenchmarkExperiment runs each catalogue entry by name, so
//
//	go test -bench=Experiment -benchmem
//
// times the study end to end. Sizes are reduced from the paper's (see
// benchSizes); the shapes are the reproduction target. cmd/cedarsim runs
// the same entries with formatted output and full sizes.
package cedar_test

import (
	"fmt"
	"io"
	"testing"

	"cedar"
	"cedar/internal/perfect"
	"cedar/internal/tables"
)

// benchSizes are the benchmarks' problem sizes: rank-update order 192
// (the paper used 1K; 192 keeps -bench=. affordable while preserving
// shape), Table 2's reduced slices, 2048 words per CE in membw, and three
// representative Perfect codes (the high performer, the RNG-bound code
// and the suite's poor performer; cedarsim t3 runs all thirteen).
var benchSizes = cedar.Sizes{RankN: 192, MemBWWords: 2048,
	Codes: []cedar.PerfectProfile{perfect.ARC2D(), perfect.QCD(), perfect.SPICE()}}

// runNamed runs one catalogue entry alone at benchSizes under env.
func runNamed(b *testing.B, env cedar.Env, name string) {
	exps, err := cedar.Experiments(name)
	if err != nil {
		b.Fatal(err)
	}
	if err := cedar.RunAll(env, benchSizes, exps, func(cedar.Experiment, cedar.ExperimentResult) error { return nil }); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExperiment regenerates each catalogue entry alone, one
// sub-benchmark per name. The paper's quantities are the tables'
// cells; RunAll judges them against the paper as claims.
func BenchmarkExperiment(b *testing.B) {
	for _, name := range tables.Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runNamed(b, cedar.Env{}, name)
			}
		})
	}
}

// BenchmarkScopeOverhead measures the cost of the observability hub on
// Table 1: the disabled case (nil hub — every scope call short-circuits)
// must track BenchmarkExperiment/t1 within noise, and the enabled case
// bounds the price of full instrumentation.
func BenchmarkScopeOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runNamed(b, cedar.Env{}, "t1")
		}
	})
	b.Run("enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hub := cedar.NewHub()
			runNamed(b, cedar.Env{Hub: hub}, "t1")
			if len(hub.Snapshot()) == 0 {
				b.Fatal("instrumented run registered no metrics")
			}
		}
	})
}

// BenchmarkSuiteParallel regenerates the kernel-level report sections at
// 1 and 4 workers; the ratio of the two timings is the cedarfleet
// speedup (≈1 on a single-core host; the 4-core acceptance target is
// ≥2×).
func BenchmarkSuiteParallel(b *testing.B) {
	kernels, err := cedar.Experiments(cedar.Kernels...)
	if err != nil {
		b.Fatal(err)
	}
	for _, jobs := range []int{1, 4} {
		b.Run(fmt.Sprintf("jobs%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := cedar.WriteReport(io.Discard, cedar.Env{Jobs: jobs}, cedar.Sizes{RankN: benchSizes.RankN}, kernels)
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
