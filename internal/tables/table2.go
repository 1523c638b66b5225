package tables

import (
	"fmt"
	"slices"
	"strings"

	"cedar/internal/bench"
)

// Table2 reproduces "Global memory performance": mean first-word latency
// and interarrival time (CE cycles, minimums 8 and 1) of CE 0's prefetch
// requests for four kernels — vector load (VL), tridiagonal matvec (TM),
// rank-64 update (RK, 256-word blocks, aggressively overlapped), and
// conjugate gradient (CG) — on 8, 16 and 32 processors. The paper's
// finding: contention degrades both metrics as CEs are added; RK degrades
// most (longest blocks, fully overlapped), VL less (32-word blocks), TM
// and CG least (register-register operations reduce memory demand).
type Table2Result struct {
	Kernels []string
	CEs     []int
	Latency map[string]map[int]float64
	Inter   map[string]map[int]float64
	Blocks  map[string]map[int]int64
}

// RunTable2 executes the kernel × processor-count sweep; small selects
// reduced slices for tests and quick reports.
func RunTable2(env Env, small bool) (*Table2Result, error) {
	return runAs[*Table2Result](env, "t2", Sizes{Table2Full: !small})
}

var (
	table2Kernels = []string{"VL", "TM", "RK", "CG"}
	table2CEs     = []int{8, 16, 32}
)

func table2Points(env Env, s Sizes) []point {
	// Each kernel's simulated slice is kept moderate.
	vl, tm, rk, cg := 1024, 4096, 96, 4096
	if s.Table2Full {
		vl, tm, rk, cg = 4096, 16384, 192, 16384
	}
	workloads := []bench.WorkloadSpec{ // in table2Kernels order
		{Kind: "vectorload", N: vl, Sweeps: 2},
		{Kind: "trimat", N: tm},
		rankPref(rk),
		{Kind: "cg", N: cg, Iters: 1},
	}
	perCluster := env.Machine().CEsPerCluster
	var pts []point
	for _, ces := range table2CEs {
		for ki, name := range table2Kernels {
			pts = append(pts, env.point(fmt.Sprintf("t2/%s/%dce", strings.ToLower(name), ces),
				bench.MachineSpec{Clusters: ces / perCluster}, workloads[ki]))
		}
	}
	return pts
}

func table2Table(_ Sizes, _ []point, outs []bench.PointOutcome) Result {
	res := &Table2Result{
		Kernels: slices.Clone(table2Kernels),
		CEs:     slices.Clone(table2CEs),
		Latency: map[string]map[int]float64{},
		Inter:   map[string]map[int]float64{},
		Blocks:  map[string]map[int]int64{},
	}
	for _, k := range res.Kernels {
		res.Latency[k] = map[int]float64{}
		res.Inter[k] = map[int]float64{}
		res.Blocks[k] = map[int]int64{}
	}
	for i, out := range outs {
		name, ces := table2Kernels[i%len(table2Kernels)], table2CEs[i/len(table2Kernels)]
		res.Latency[name][ces] = out.Blocks.MeanLatency()
		res.Inter[name][ces] = out.Blocks.MeanInterarrival()
		res.Blocks[name][ces] = out.Blocks.Blocks()
	}
	return res
}

// Format renders the table.
func (t *Table2Result) Format() string {
	header := []string{"kernel"}
	for _, c := range t.CEs {
		header = append(header, fmt.Sprintf("lat@%d", c), fmt.Sprintf("int@%d", c))
	}
	var rows [][]string
	for _, k := range t.Kernels {
		row := []string{k}
		for _, c := range t.CEs {
			row = append(row,
				fmt.Sprintf("%.1f", t.Latency[k][c]),
				fmt.Sprintf("%.2f", t.Inter[k][c]))
		}
		rows = append(rows, row)
	}
	s := formatTable(header, rows)
	s += "minimal latency 8 cycles, minimal interarrival 1 cycle (hardware floors)\n"
	return s
}

// table2Claims: the hardware floors, blocks monitored at every point,
// every kernel's latency growing with CE count, and RK the worst row at
// every CE count.
func table2Claims() []claim {
	cs := []claim{
		{id: "latency floor", kind: floor, paper: 8,
			value: of(func(t *Table2Result) []float64 { return values(t, t.Latency, table2Kernels...) })},
		{id: "interarrival floor", kind: floor, paper: 1,
			value: of(func(t *Table2Result) []float64 { return values(t, t.Inter, table2Kernels...) })},
		{id: "blocks monitored", kind: floor, paper: 1,
			value: of(func(t *Table2Result) []float64 { return values(t, t.Blocks, table2Kernels...) })},
	}
	for _, k := range table2Kernels {
		cs = append(cs, claim{id: k + " latency grows 8 → 16 → 32 CEs", kind: ordering,
			value: of(func(t *Table2Result) []float64 { return values(t, t.Latency, k) })})
	}
	return append(cs, claim{id: "RK latency over the worst other kernel's, every CE count", kind: floor, paper: 1,
		value: of(func(t *Table2Result) []float64 {
			return collect(t.CEs, func(c int) float64 {
				return t.Latency["RK"][c] / max(t.Latency["VL"][c], t.Latency["TM"][c], t.Latency["CG"][c])
			})
		})})
}

// values lists the named kernels' values, each in CE-count order.
func values[N int64 | float64](t *Table2Result, byKernel map[string]map[int]N, kernels ...string) []float64 {
	var vs []float64
	for _, k := range kernels {
		for _, c := range t.CEs {
			vs = append(vs, float64(byKernel[k][c]))
		}
	}
	return vs
}
