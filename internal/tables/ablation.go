package tables

import (
	"fmt"
	"slices"

	"cedar/internal/ce"
	"cedar/internal/cfrt"
	"cedar/internal/core"
	"cedar/internal/kernels"
	"cedar/internal/params"
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
	type config struct {
		name   string
		scope  string // scope-namespace token (no spaces)
		fabric core.FabricKind
		queue  int
	}
	configs := []config{
		{"omega 2-word queues (as built)", "omega-2w", core.FabricOmega, 0},
		{"omega 8-word queues", "omega-8w", core.FabricOmega, 8},
		{"ideal crossbar", "crossbar", core.FabricCrossbar, 0},
	}
	return sweep(env, configs,
		func(cfg config) build {
			pm := env.Machine()
			if cfg.queue > 0 {
				pm.NetQueueWords = cfg.queue
			}
			b := env.at("net/"+cfg.scope, pm)
			b.opt.Fabric = cfg.fabric
			return b
		},
		func(cfg config, m *core.Machine) (NetworkAblationRow, error) {
			out, err := kernels.RankUpdate(m, n, kernels.RKPref)
			if err != nil {
				return NetworkAblationRow{}, err
			}
			return NetworkAblationRow{
				Config:  cfg.name,
				MFLOPS:  out.MFLOPS,
				Latency: out.Blocks.MeanLatency(),
				Inter:   out.Blocks.MeanInterarrival(),
			}, nil
		})
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
	p := env.Machine()
	p.Clusters = 1
	return sweep(env, []int{0, 32, 128, 256, 512},
		func(block int) build { return env.at(fmt.Sprintf("prefblock/%d", block), p) },
		func(block int, m *core.Machine) (PrefetchBlockRow, error) {
			aBase := m.AllocGlobalAligned(n*64, 64)
			body := func(j int, q []ce.Instr) []ce.Instr {
				q = slices.Grow(q, 64+1) // and the runtime's loop branch
				for k := 0; k < 64; k++ {
					q = append(q, ce.Instr{
						Op: ce.OpVector, N: n, Flops: 2,
						Srcs: []ce.Stream{{Space: ce.SpaceGlobal, Base: aBase + uint64(k*n), Stride: 1, PrefBlock: block}},
					})
				}
				return q
			}
			rt := cfrt.New(m, cfrt.Config{UseCedarSync: true},
				cfrt.XDoall{N: n / 8, Static: true, Body: body})
			res, err := rt.Run(1 << 40)
			return PrefetchBlockRow{Block: block, MFLOPS: res.MFLOPS}, err
		})
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
	clusterCounts := []int{4, 8}
	// The RK and CG runs of one machine size are themselves independent
	// simulations, so each (size, kernel) pair is its own pool job.
	type point struct {
		clusters int
		kernel   string
	}
	var points []point
	for _, clusters := range clusterCounts {
		points = append(points, point{clusters, "rk"}, point{clusters, "cg"})
	}
	outs, err := sweep(env, points,
		func(pt point) build {
			return env.at(fmt.Sprintf("scaled/%dcl/%s", pt.clusters, pt.kernel), params.Scaled(pt.clusters))
		},
		func(pt point, m *core.Machine) (float64, error) {
			if pt.kernel == "rk" {
				out, err := kernels.RankUpdate(m, n, kernels.RKPref)
				return out.MFLOPS, err
			}
			out, err := kernels.CG(m, kernels.CGConfig{N: 32 << 10, Iters: 2})
			return out.MFLOPS, err
		})
	if err != nil {
		return nil, err
	}
	var rows ScaledCedar
	for i, clusters := range clusterCounts {
		rows = append(rows, ScaledRow{
			Clusters: clusters, CEs: params.Scaled(clusters).CEs(),
			RKMFLOPS: outs[2*i], CGMFLOPS: outs[2*i+1],
		})
	}
	return rows, nil
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
