package tables

import (
	"fmt"

	"cedar/internal/bench"
	"cedar/internal/kernels"
	"cedar/internal/params"
)

// Table1 reproduces "MFLOPS for rank-64 update on Cedar": three memory
// variants across 1-4 clusters. The paper's values (n = 1K):
//
//	GM/no-pref  14.5   29.0   43.0   55.0
//	GM/pref     50.0   84.0   96.0  104.0
//	GM/cache    52.0  104.0  152.0  208.0
type Table1Result struct {
	N      int
	Modes  []kernels.RKMode
	MFLOPS [][]float64 // [mode][clusters-1]
}

// table1Variants are the table's rows — GM/no-pref, GM/pref, GM/cache —
// as the rank workload's Variant (and a scope name) spells them.
var table1Variants = []string{"nopref", "pref", "cache"}

// table1Points is the sweep. RankN is the matrix order (the paper used
// 1K; 256 preserves the shape at a fraction of the simulation cost). Each
// machine reports under its own t1/<mode>/<k>cl namespace.
func table1Points(env Env, s Sizes) []point {
	var pts []point
	for _, variant := range table1Variants {
		for clusters := 1; clusters <= 4; clusters++ {
			pts = append(pts, env.point(fmt.Sprintf("t1/%s/%dcl", variant, clusters),
				bench.MachineSpec{Clusters: clusters},
				bench.WorkloadSpec{Kind: "rank", N: s.RankN, Variant: variant}))
		}
	}
	return pts
}

func table1Table(s Sizes, _ []point, outs []bench.PointOutcome) Result {
	res := &Table1Result{N: s.RankN, Modes: []kernels.RKMode{kernels.RKNoPref, kernels.RKPref, kernels.RKCache}}
	for mi := range res.Modes {
		row := make([]float64, 4)
		for c := range row {
			row[c] = outs[4*mi+c].MFLOPS
		}
		res.MFLOPS = append(res.MFLOPS, row)
	}
	return res
}

// PrefetchGain returns GM/pref over GM/no-pref per cluster count (the
// paper: 3.5, 2.9, 2.2, 1.9).
func (t *Table1Result) PrefetchGain() []float64 {
	g := make([]float64, 4)
	for c := 0; c < 4; c++ {
		g[c] = t.MFLOPS[1][c] / t.MFLOPS[0][c]
	}
	return g
}

// CacheEfficiency returns the 4-cluster GM/cache rate as a fraction of
// the effective (vector-startup-limited) peak; the paper reports 74%.
func (t *Table1Result) CacheEfficiency() float64 {
	return t.MFLOPS[2][3] / params.Default().EffectivePeakMFLOPS()
}

// Format renders the table in the paper's layout.
func (t *Table1Result) Format() string {
	header := []string{fmt.Sprintf("rank-64 n=%d", t.N), "1 cl.", "2 cl.", "3 cl.", "4 cl."}
	var rows [][]string
	for mi, mode := range t.Modes {
		row := []string{mode.String()}
		for c := 0; c < 4; c++ {
			row = append(row, fmt.Sprintf("%.1f", t.MFLOPS[mi][c]))
		}
		rows = append(rows, row)
	}
	return formatTable(header, rows)
}

// table1Claims: the rows' ordering and the prefetch gain at every cluster
// count, no-pref's one-cluster rate and latency-bound scaling, known
// deviations 2 and 5. Below n = 96 a 64-wide update cannot keep a cluster
// busy.
func table1Claims() []claim {
	at := Sizes{RankN: 96}
	gain := func(c int, paper, tol float64) claim {
		return claim{id: fmt.Sprintf("prefetch gain @%dcl", c+1), kind: within, paper: paper, tol: tol, needs: at,
			value: one(func(t *Table1Result) float64 { return t.PrefetchGain()[c] })}
	}
	cs := []claim{
		gain(0, 3.5, 0.9), // 2.7 at n = 512 to 3.2 at n = 96
		gain(1, 2.9, 0.5),
		gain(2, 2.2, 0.15).deviates(2.85, "GM/pref saturates at 3 clusters, known deviation 2"),
		gain(3, 1.9, 0.5),
		{id: "GM/no-pref MFLOPS @1cl", kind: within, paper: 14.5, tol: 1.5, needs: at,
			value: one(func(t *Table1Result) float64 { return t.MFLOPS[0][0] })},
		{id: "GM/no-pref scaling 1 → 4 clusters", kind: within, paper: 4, tol: 0.5, needs: at,
			value: one(func(t *Table1Result) float64 { return t.MFLOPS[0][3] / t.MFLOPS[0][0] })},
		claim{id: "GM/pref MFLOPS @4cl", kind: within, paper: 104, tol: 3, needs: at,
			value: one(func(t *Table1Result) float64 { return t.MFLOPS[1][3] })}.deviates(120, "GM/pref saturates early, known deviation 2"),
		claim{id: "GM/cache efficiency @4cl", kind: within, paper: 0.74, tol: 0.08, needs: at,
			value: one((*Table1Result).CacheEfficiency)}.deviates(0.86, "the A panel fits the cache below the paper's n = 1K, known deviation 5"),
	}
	for c := range 4 {
		cs = append(cs, claim{id: fmt.Sprintf("GM/no-pref < GM/pref < GM/cache @%dcl", c+1), kind: ordering, needs: at,
			value: of(func(t *Table1Result) []float64 { return []float64{t.MFLOPS[0][c], t.MFLOPS[1][c], t.MFLOPS[2][c]} })})
	}
	return cs
}
