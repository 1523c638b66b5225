// multiprogram demonstrates why the paper collected every measurement in
// single-user mode "to avoid the non-determinism of multiprogramming": a
// barrier-synchronized program co-scheduled with background compute work
// slows down far beyond the 2× its machine share predicts, because its
// barriers spin while its gang partners run the other task.
//
//	go run ./examples/multiprogram
package main

import (
	"fmt"
	"log"

	"cedar"
)

func main() {
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
		log.Fatal(err)
	}
	fmt.Printf("single-user:        %7d cycles (%.2f ms)\n", solo.Cycles, solo.Seconds*1e3)

	// The same program time-shared with a compute-bound task.
	mShared := cedar.NewMachine(p, cedar.Options{})
	rt := cedar.NewRuntime(mShared, cedar.RuntimeConfig{UseCedarSync: true}, phases()...)
	background := cedar.FixedWork(400, 200)
	ts := cedar.NewTimeSharer(p, 3000, rt, background)
	if _, err := mShared.Run(ts, 1<<40); err != nil {
		log.Fatal(err)
	}
	shared := ts.DoneAt(0)
	fmt.Printf("multiprogrammed:    %7d cycles (%.1f× slower on a 2-way share)\n",
		shared, float64(shared)/float64(solo.Cycles))
	fmt.Printf("cluster rotations:  %d\n", ts.Switches())
	fmt.Println("\nthe paper: \"All the results ... were collected in single-user mode")
	fmt.Println("to avoid the non-determinism of multiprogramming.\"")
}
