// Quickstart: build a Cedar machine, write a small parallel program with
// the CEDAR FORTRAN runtime abstractions, and read back its performance.
//
// The program is a DOALL over 64 vector operations streaming from global
// memory through the prefetch units — the bread-and-butter pattern of
// Cedar codes.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cedar"
)

func main() {
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
		log.Fatal(err)
	}

	fmt.Printf("ran %d flops in %d cycles (%.2f ms at %.0f ns per cycle)\n",
		res.Flops, res.Cycles, res.Seconds*1e3, cedar.CycleNS)
	fmt.Printf("aggregate rate: %.1f MFLOPS (machine peak %.0f, effective peak %.0f)\n",
		res.MFLOPS, p.PeakMFLOPS(), p.EffectivePeakMFLOPS())
}
