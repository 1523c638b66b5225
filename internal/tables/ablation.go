package tables

import (
	"fmt"

	"cedar/internal/bench"
)

// NetworkAblationRow is one fabric configuration's result on the
// 32-CE prefetched rank-64 update.
type NetworkAblationRow struct {
	Config  string
	MFLOPS  float64
	Latency float64
	Inter   float64
}

// NetworkAblation is the [Turn93] fabric ablation, one row per
// configuration.
type NetworkAblation []NetworkAblationRow

// RunNetworkAblation supports the [Turn93] claim quoted in §4.1: the
// contention degradation "is not inherent in the type of network used but
// is a result of specific implementation constraints". It runs the
// prefetched rank-64 update on all 32 CEs under the omega network as
// built (2-word queues), an omega with deeper (8-word) queues, and an
// ideal crossbar of the same port bandwidth.
func RunNetworkAblation(env Env, n int) (NetworkAblation, error) {
	return runAs[NetworkAblation](env, "net", Sizes{RankN: n})
}

// netConfigs are the ablation's rows: display name, scope-namespace token
// (no spaces) and what the machine changes.
var netConfigs = []struct {
	name, scope string
	machine     bench.MachineSpec
}{
	{"omega 2-word queues (as built)", "omega-2w", bench.MachineSpec{}},
	{"omega 8-word queues", "omega-8w", bench.MachineSpec{NetQueueWords: 8}},
	{"ideal crossbar", "crossbar", bench.MachineSpec{Fabric: "crossbar"}},
}

// rankPref is the prefetched rank-64 update of order n on every CE.
func rankPref(n int) bench.WorkloadSpec {
	return bench.WorkloadSpec{Kind: "rank", N: n, Variant: "pref"}
}

func netPoints(env Env, s Sizes) []point {
	var pts []point
	for _, cfg := range netConfigs {
		pts = append(pts, env.point("net/"+cfg.scope, cfg.machine, rankPref(s.RankN)))
	}
	return pts
}

func netTable(_ Sizes, _ []point, outs []bench.PointOutcome) Result {
	var rows NetworkAblation
	for i, out := range outs {
		rows = append(rows, NetworkAblationRow{
			Config:  netConfigs[i].name,
			MFLOPS:  out.MFLOPS,
			Latency: out.Blocks.MeanLatency(),
			Inter:   out.Blocks.MeanInterarrival(),
		})
	}
	return rows
}

// Format renders the ablation.
func (rows NetworkAblation) Format() string {
	header := []string{"network", "MFLOPS", "latency", "interarrival"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Config,
			fmt.Sprintf("%.1f", r.MFLOPS),
			fmt.Sprintf("%.1f", r.Latency),
			fmt.Sprintf("%.2f", r.Inter),
		})
	}
	s := formatTable(header, out)
	s += "[Turn93]: degradation is an implementation constraint (shallow queues), not the network type\n"
	return s
}

// PrefetchBlockRow is one prefetch block size's rank-update rate.
type PrefetchBlockRow struct {
	Block  int // 0 = no prefetch
	MFLOPS float64
}

// PrefetchBlocks is the prefetch block-size ablation, one row per size.
type PrefetchBlocks []PrefetchBlockRow

// RunPrefetchBlockAblation isolates design choice 2 of DESIGN.md: the
// compiler's 32-word blocks versus RK's aggressive 256-word blocks versus
// no prefetch, on one cluster.
func RunPrefetchBlockAblation(env Env, n int) (PrefetchBlocks, error) {
	return runAs[PrefetchBlocks](env, "prefblock", Sizes{RankN: n})
}

// blockSizes are the swept block lengths in words; 0 is no prefetch.
var blockSizes = []int{0, 32, 128, 256, 512}

func prefBlockPoints(env Env, s Sizes) []point {
	var pts []point
	for _, block := range blockSizes {
		pts = append(pts, env.point(fmt.Sprintf("prefblock/%d", block), bench.MachineSpec{Clusters: 1},
			bench.WorkloadSpec{Kind: "prefblock", N: s.RankN, Block: block}))
	}
	return pts
}

func prefBlockTable(_ Sizes, _ []point, outs []bench.PointOutcome) Result {
	var rows PrefetchBlocks
	for i, out := range outs {
		rows = append(rows, PrefetchBlockRow{Block: blockSizes[i], MFLOPS: out.MFLOPS})
	}
	return rows
}

// Format renders the block-size ablation.
func (rows PrefetchBlocks) Format() string {
	header := []string{"prefetch block (words)", "MFLOPS (1 cluster)"}
	var out [][]string
	for _, r := range rows {
		b := "none"
		if r.Block > 0 {
			b = fmt.Sprintf("%d", r.Block)
		}
		out = append(out, []string{b, fmt.Sprintf("%.1f", r.MFLOPS)})
	}
	return formatTable(header, out)
}

// ScaledRow is one machine size in the PPT5 probe.
type ScaledRow struct {
	Clusters int
	CEs      int
	RKMFLOPS float64
	CGMFLOPS float64
}

// ScaledCedar is the PPT5 probe, one row per machine size.
type ScaledCedar []ScaledRow

// RunScaledCedar probes PPT5 (§4.3's closing note: "collecting detailed
// simulation data for various computations on scaled-up Cedar-like
// systems"): the prefetched rank-64 update and CG on Cedar scaled to 8
// clusters with a proportionally larger network and memory system.
func RunScaledCedar(env Env, n int) (ScaledCedar, error) {
	return runAs[ScaledCedar](env, "scaled", Sizes{RankN: n})
}

var scaledClusters = []int{4, 8}

// scaledPoints: the RK and CG runs of one machine size are themselves
// independent simulations, so each (size, kernel) pair is its own point.
// These name their own base machine; the Env's width does not apply.
func scaledPoints(env Env, s Sizes) []point {
	var pts []point
	for _, clusters := range scaledClusters {
		ms := bench.MachineSpec{Scaled: clusters}
		pts = append(pts,
			env.point(fmt.Sprintf("scaled/%dcl/rk", clusters), ms, rankPref(s.RankN)),
			env.point(fmt.Sprintf("scaled/%dcl/cg", clusters), ms, bench.WorkloadSpec{Kind: "cg", N: 32 << 10, Iters: 2}))
	}
	return pts
}

func scaledTable(_ Sizes, pts []point, outs []bench.PointOutcome) Result {
	var rows ScaledCedar
	for i, clusters := range scaledClusters {
		rows = append(rows, ScaledRow{
			Clusters: clusters, CEs: pts[2*i].Machine.Params().CEs(),
			RKMFLOPS: outs[2*i].MFLOPS, CGMFLOPS: outs[2*i+1].MFLOPS,
		})
	}
	return rows
}

// Format renders the PPT5 probe.
func (rows ScaledCedar) Format() string {
	header := []string{"clusters", "CEs", "RK GM/pref MFLOPS", "CG 32K MFLOPS"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.Clusters), fmt.Sprintf("%d", r.CEs),
			fmt.Sprintf("%.1f", r.RKMFLOPS), fmt.Sprintf("%.1f", r.CGMFLOPS),
		})
	}
	return formatTable(header, out)
}

// netClaims: [Turn93] — relief comes from implementation, not the network
// type: the as-built omega is no faster than deeper queues or a crossbar.
var netClaims = []claim{
	{id: "as built ≤ 8-word queues", kind: ordering, tol: 0.05, needs: Sizes{RankN: 96},
		value: of(func(r NetworkAblation) []float64 { return []float64{r[0].MFLOPS, r[1].MFLOPS} })},
	{id: "as built ≤ ideal crossbar", kind: ordering, tol: 0.05, needs: Sizes{RankN: 96},
		value: of(func(r NetworkAblation) []float64 { return []float64{r[0].MFLOPS, r[2].MFLOPS} })},
}

// prefBlockClaims: every block size clearly beats no prefetch; past 32
// words bigger blocks lose to contention, the mechanism of Table 2's RK row.
var prefBlockClaims = []claim{
	{id: "every block's gain over no prefetch", kind: floor, paper: 1.5, needs: Sizes{RankN: 96},
		value: of(func(r PrefetchBlocks) []float64 {
			return collect(r[1:], func(b PrefetchBlockRow) float64 { return b.MFLOPS / r[0].MFLOPS })
		})},
	{id: "512- over 32-word block MFLOPS", kind: floor, paper: 0.5, needs: Sizes{RankN: 96},
		value: one(func(r PrefetchBlocks) float64 { return r[4].MFLOPS / r[1].MFLOPS })},
	{id: "none < 512 ≤ 256 ≤ 128 ≤ 32 words", kind: ordering, tol: 0.01, needs: Sizes{RankN: 96},
		value: of(func(r PrefetchBlocks) []float64 {
			return []float64{r[0].MFLOPS, r[4].MFLOPS, r[3].MFLOPS, r[2].MFLOPS, r[1].MFLOPS}
		})},
}

// scaledClaims: twice the clusters, with the network and memory scaled
// in proportion, nearly doubles CG's rate — "capable of being scaled up".
var scaledClaims = []claim{
	{id: "CG speedup 4 → 8 clusters", kind: within, paper: 2, tol: 0.3,
		value: one(func(r ScaledCedar) float64 { return r[1].CGMFLOPS / r[0].CGMFLOPS })},
}
