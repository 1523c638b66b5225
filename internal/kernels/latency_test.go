package kernels

import (
	"testing"

	"cedar/internal/ce"
	"cedar/internal/core"
)

// loadLatencyStored is LoadLatency with its program held in memory as a
// ce.Program — the reference the streamed (ce.Generator) probe must match.
func loadLatencyStored(m *core.Machine, n int, gap int64) (core.Result, error) {
	base := m.AllocGlobal(n)
	prog := &ce.Program{}
	for i := 0; i < n; i++ {
		prog.Instrs = append(prog.Instrs, &ce.Instr{Op: ce.OpGlobalLoad, Addr: base + uint64(i)})
		if gap > 0 {
			prog.Instrs = append(prog.Instrs, &ce.Instr{Op: ce.OpScalar, Cycles: gap})
		}
	}
	return m.RunOn(m.CEs[:1], prog, 1<<40)
}

// TestLoadLatencyStreamedMatchesStored: the streamed probe is cycle- and
// flop-identical to the stored one, back to back and with scalar work
// between loads.
func TestLoadLatencyStreamedMatchesStored(t *testing.T) {
	for _, gap := range []int64{0, 100} {
		want, err := loadLatencyStored(mach(t, 4), 200, gap)
		if err != nil {
			t.Fatal(err)
		}
		got, err := LoadLatency(mach(t, 4), 200, gap)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles || got.Flops != want.Flops {
			t.Errorf("gap=%d: streamed %d cycles / %d flops, stored %d / %d",
				gap, got.Cycles, got.Flops, want.Cycles, want.Flops)
		}
		if min := int64(200) * (13 + gap); got.Cycles < min {
			t.Errorf("gap=%d: %d cycles for 200 dependent loads, want ≥ %d", gap, got.Cycles, min)
		}
	}
}
