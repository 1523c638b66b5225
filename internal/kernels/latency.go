package kernels

import (
	"fmt"

	"cedar/internal/ce"
	"cedar/internal/core"
)

// LoadLatency runs the single-processor latency probe behind Table 2's
// round-trip numbers: one CE issues n dependent scalar global loads,
// each separated by gap cycles of scalar work, while the other 31 CEs
// sit idle. Almost every simulated cycle has exactly one request in
// flight (or nothing at all during the gap), which makes this the
// latency-dominated extreme of the memory study — and the event-wheel
// engine's best case, since whole round trips collapse into a handful
// of effective ticks. Addresses walk consecutive words so successive
// loads visit successive memory modules.
func LoadLatency(m *core.Machine, n int, gap int64) (Result, error) {
	if n < 1 {
		return Result{}, fmt.Errorf("kernels: need at least one load")
	}
	if gap < 0 {
		return Result{}, fmt.Errorf("kernels: negative gap")
	}
	base := m.AllocGlobal(n)
	// The program is streamed: a load, then (gap > 0) the scalar work
	// after it. Stored, it would be the probe's largest allocation.
	per := 1
	if gap > 0 {
		per = 2
	}
	prog := ce.NewGenerator(1, per*n, func(_, i int, in *ce.Instr) {
		if i%per == 0 {
			in.Op, in.Addr = ce.OpGlobalLoad, base+uint64(i/per)
		} else {
			in.Op, in.Cycles = ce.OpScalar, gap
		}
	})
	res, err := m.RunOn(m.CEs[:1], prog, 1<<40)
	if err != nil {
		return Result{}, err
	}
	return Result{Result: res}, nil
}
