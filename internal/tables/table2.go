package tables

import (
	"fmt"
	"strings"

	"cedar/internal/core"
	"cedar/internal/kernels"
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

// table2Sizes keeps each kernel's simulated slice moderate.
type table2Size struct {
	vlWords int
	tmN     int
	rkN     int
	cgN     int
}

// t2Stats is one (kernel, CE-count) point's measurements.
type t2Stats struct {
	Latency float64
	Inter   float64
	Blocks  int64
}

// RunTable2 executes the kernel × processor-count sweep; small selects
// reduced slices for tests and quick reports.
func RunTable2(env Env, small bool) (*Table2Result, error) {
	sz := table2Size{vlWords: 4096, tmN: 16384, rkN: 192, cgN: 16384}
	if small {
		sz = table2Size{vlWords: 1024, tmN: 4096, rkN: 96, cgN: 4096}
	}
	res := &Table2Result{
		Kernels: []string{"VL", "TM", "RK", "CG"},
		CEs:     []int{8, 16, 32},
		Latency: map[string]map[int]float64{},
		Inter:   map[string]map[int]float64{},
		Blocks:  map[string]map[int]int64{},
	}
	for _, k := range res.Kernels {
		res.Latency[k] = map[int]float64{}
		res.Inter[k] = map[int]float64{}
		res.Blocks[k] = map[int]int64{}
	}
	kernel := map[string]func(m *core.Machine) (kernels.Result, error){
		"VL": func(m *core.Machine) (kernels.Result, error) {
			return kernels.VectorLoad(m, sz.vlWords, 2)
		},
		"TM": func(m *core.Machine) (kernels.Result, error) {
			return kernels.TriMat(m, sz.tmN)
		},
		"RK": func(m *core.Machine) (kernels.Result, error) {
			return kernels.RankUpdate(m, sz.rkN, kernels.RKPref)
		},
		"CG": func(m *core.Machine) (kernels.Result, error) {
			return kernels.CG(m, kernels.CGConfig{N: sz.cgN, Iters: 1})
		},
	}
	type point struct {
		name string
		ces  int
	}
	var points []point
	for _, ces := range res.CEs {
		for _, name := range res.Kernels {
			points = append(points, point{name: name, ces: ces})
		}
	}
	outs, err := sweep(env, points,
		func(pt point) build {
			p := env.Machine()
			p.Clusters = pt.ces / p.CEsPerCluster
			return env.at(fmt.Sprintf("t2/%s/%dce", strings.ToLower(pt.name), pt.ces), p)
		},
		func(pt point, m *core.Machine) (t2Stats, error) {
			out, err := kernel[pt.name](m)
			if err != nil {
				return t2Stats{}, err
			}
			return t2Stats{
				Latency: out.Blocks.MeanLatency(),
				Inter:   out.Blocks.MeanInterarrival(),
				Blocks:  out.Blocks.Blocks(),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	for i, pt := range points {
		res.Latency[pt.name][pt.ces] = outs[i].Latency
		res.Inter[pt.name][pt.ces] = outs[i].Inter
		res.Blocks[pt.name][pt.ces] = outs[i].Blocks
	}
	return res, nil
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
