package cedar_test

import (
	"fmt"

	"cedar"
)

// Example builds a Cedar machine, writes a small parallel program with
// the CEDAR FORTRAN runtime abstractions, and reads back its performance.
// The program is a DOALL over 64 vector operations streaming from global
// memory through the prefetch units, the bread-and-butter pattern of
// Cedar codes.
func Example() {
	// The machine as built: 4 clusters × 8 CEs, two-stage omega networks,
	// 32 global memory modules with synchronization processors.
	p := cedar.DefaultParams()
	m := cedar.NewMachine(p, cedar.Options{})

	// Place a working array in global memory.
	const vecLen = 512
	const iters = 64
	base := m.AllocGlobalAligned(iters*vecLen, 64)

	// Each iteration is one chained multiply-add sweep over its slice,
	// prefetched in 256-word blocks.
	body := func(i int, q []cedar.Instr) []cedar.Instr {
		return append(q, cedar.Instr{
			Op: cedar.OpVector, N: vecLen, Flops: 2,
			Srcs: []cedar.Stream{{
				Space:     cedar.SpaceGlobal,
				Base:      base + uint64(i*vecLen),
				Stride:    1,
				PrefBlock: 256,
			}},
		})
	}

	// An XDOALL self-schedules the iterations over all 32 CEs using the
	// memory modules' Test-And-Add synchronization instructions.
	rt := cedar.NewRuntime(m,
		cedar.RuntimeConfig{UseCedarSync: true},
		cedar.XDoall{N: iters, Body: body},
	)
	res, err := rt.Run(100_000_000)
	if err != nil {
		panic(err)
	}

	fmt.Printf("ran %d flops in %d cycles (%.2f ms at %.0f ns per cycle)\n",
		res.Flops, res.Cycles, res.Seconds*1e3, cedar.CycleNS)
	fmt.Printf("aggregate rate: %.1f MFLOPS (machine peak %.0f, effective peak %.0f)\n",
		res.MFLOPS, p.PeakMFLOPS(), p.EffectivePeakMFLOPS())
	// Output:
	// ran 65536 flops in 4411 cycles (0.75 ms at 170 ns per cycle)
	// aggregate rate: 87.4 MFLOPS (machine peak 376, effective peak 274)
}

// ExampleNewTimeSharer shows why the paper collected every measurement in
// single-user mode "to avoid the non-determinism of multiprogramming": a
// barrier-synchronized program co-scheduled with background compute work
// slows down far beyond the 2× its machine share predicts, because its
// barriers spin while its gang partners run the other task.
func ExampleNewTimeSharer() {
	p := cedar.DefaultParams()
	body := func(i int, q []cedar.Instr) []cedar.Instr {
		return append(q, cedar.Instr{Op: cedar.OpScalar, Cycles: 50, Flops: 10})
	}
	phases := func() []cedar.Phase {
		var phs []cedar.Phase
		for k := 0; k < 6; k++ {
			phs = append(phs, cedar.XDoall{N: 64, Body: body})
		}
		return phs
	}

	// Single-user run, as the paper measured.
	mSolo := cedar.NewMachine(p, cedar.Options{})
	solo, err := cedar.NewRuntime(mSolo, cedar.RuntimeConfig{UseCedarSync: true}, phases()...).Run(1 << 40)
	if err != nil {
		panic(err)
	}
	fmt.Printf("single-user:        %7d cycles (%.2f ms)\n", solo.Cycles, solo.Seconds*1e3)

	// The same program time-shared with a compute-bound task.
	mShared := cedar.NewMachine(p, cedar.Options{})
	rt := cedar.NewRuntime(mShared, cedar.RuntimeConfig{UseCedarSync: true}, phases()...)
	background := cedar.FixedWork(400, 200)
	ts := cedar.NewTimeSharer(p, 3000, rt, background)
	if _, err := mShared.Run(ts, 1<<40); err != nil {
		panic(err)
	}
	shared := ts.DoneAt(0)
	fmt.Printf("multiprogrammed:    %7d cycles (%.1f× slower on a 2-way share)\n",
		shared, float64(shared)/float64(solo.Cycles))
	fmt.Printf("cluster rotations:  %d\n", ts.Switches())
	// Output:
	// single-user:           6570 cycles (1.12 ms)
	// multiprogrammed:      24349 cycles (3.7× slower on a 2-way share)
	// cluster rotations:  20
}

// ExampleSDoall writes the CEDAR FORTRAN nest the paper's codes are built
// from: an SDOALL hands whole iterations to clusters, and each iteration
// is a list of cluster phases, here a serial setup on the cluster's master
// CE followed by a CDOALL that spreads the inner loop over the cluster's
// eight CEs through the concurrency control bus.
func ExampleSDoall() {
	m := cedar.NewMachine(cedar.DefaultParams(), cedar.Options{})
	inner := func(j int, q []cedar.Instr) []cedar.Instr {
		return append(q, cedar.Instr{Op: cedar.OpScalar, Cycles: 40, Flops: 8})
	}
	rt := cedar.NewRuntime(m, cedar.RuntimeConfig{UseCedarSync: true},
		cedar.SDoall{N: 8, Body: func(i int) []cedar.ClusterPhase {
			return []cedar.ClusterPhase{
				cedar.ClusterSerial{Body: func(q []cedar.Instr) []cedar.Instr {
					return append(q, cedar.Instr{Op: cedar.OpScalar, Cycles: 100, Flops: 1})
				}},
				cedar.CDoall{N: 32, Body: inner},
			}
		}})
	res, err := rt.Run(10_000_000)
	if err != nil {
		panic(err)
	}
	fmt.Println("flops:", res.Flops) // 8·(1 + 32·8)
	fmt.Println("cycles:", res.Cycles)
	// Output:
	// flops: 2056
	// cycles: 1899
}

// ExampleNewRuntime runs a self-scheduled DOALL and reports the exact
// work it completed (the simulator is deterministic).
func ExampleNewRuntime() {
	m := cedar.NewMachine(cedar.DefaultParams(), cedar.Options{})
	rt := cedar.NewRuntime(m, cedar.RuntimeConfig{UseCedarSync: true},
		cedar.XDoall{N: 100, Body: func(i int, q []cedar.Instr) []cedar.Instr {
			return append(q, cedar.Instr{Op: cedar.OpScalar, Cycles: 25, Flops: 4})
		}})
	res, err := rt.Run(10_000_000)
	if err != nil {
		panic(err)
	}
	fmt.Println("flops:", res.Flops)
	// Output:
	// flops: 400
}

// ExampleBandOf classifies speedups the way §4.3 does.
func ExampleBandOf() {
	fmt.Println(cedar.BandOf(20, 32)) // ≥ P/2
	fmt.Println(cedar.BandOf(5, 32))  // ≥ P/(2·log₂P)
	fmt.Println(cedar.BandOf(2, 32))
	// Output:
	// High
	// Intermediate
	// Unacceptable
}

// ExampleInstability computes the Table 5 measure.
func ExampleInstability() {
	rates := []float64{0.6, 3.5, 4.7, 8.8, 33}
	fmt.Printf("In(5,0) = %.1f\n", cedar.Instability(rates, 0))
	fmt.Printf("In(5,2) = %.1f\n", cedar.Instability(rates, 2))
	// Output:
	// In(5,0) = 55.0
	// In(5,2) = 2.5
}

// ExampleRankUpdate runs the paper's central kernel on one cluster.
func ExampleRankUpdate() {
	p := cedar.DefaultParams()
	p.Clusters = 1
	m := cedar.NewMachine(p, cedar.Options{})
	res, err := cedar.RankUpdate(m, 64, cedar.RKNoPref)
	if err != nil {
		panic(err)
	}
	fmt.Println("flops:", res.Flops) // 2·64·n²
	// Output:
	// flops: 524288
}

// ExampleEfficiency mirrors the Table 6 computation.
func ExampleEfficiency() {
	speedup := cedar.Speedup(1500.0, 100.0)
	fmt.Printf("Ep = %.2f\n", cedar.Efficiency(speedup, 32))
	// Output:
	// Ep = 0.47
}
