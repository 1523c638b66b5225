package cedar_test

import (
	"fmt"

	"cedar"
)

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
