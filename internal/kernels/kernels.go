// Package kernels implements the computational kernels of the paper's
// memory-system study (§4.1): a vector load (VL), a tridiagonal
// matrix-vector multiply (TM), the rank-64 update of a matrix (RK) in its
// three memory variants, and a simple 5-diagonal conjugate gradient solver
// (CG) — plus the banded matrix-vector product used for the CM-5
// comparison in §4.3.
//
// All kernels place their matrices in global memory and drive the real
// simulated machine through the Cedar Fortran runtime; the RK variants
// differ exactly as the paper describes: GM/no-pref makes plain vector
// accesses limited by the 13-cycle latency and two outstanding requests,
// GM/pref uses the prefetch units (256-word blocks, aggressively
// overlapped), and GM/cache first transfers the update panel into a
// cached work array in each cluster.
package kernels

import (
	"fmt"

	"cedar/internal/ce"
	"cedar/internal/cfrt"
	"cedar/internal/core"
	"cedar/internal/perfmon"
)

// Result is a kernel run plus the hardware-monitor view of CE 0's
// prefetch traffic (the paper monitored a single processor).
type Result struct {
	core.Result
	Blocks *perfmon.BlockStats
}

// RKMode selects the rank-update memory variant of Table 1.
type RKMode int

// Rank-update variants.
const (
	// RKNoPref: all vector accesses to global memory, no prefetching.
	RKNoPref RKMode = iota
	// RKPref: identical but with prefetching (256-word blocks).
	RKPref
	// RKCache: the A panel is transferred to a cached work array in each
	// cluster and all vector accesses are made to the work array.
	RKCache
)

func (m RKMode) String() string {
	switch m {
	case RKNoPref:
		return "GM/no-pref"
	case RKPref:
		return "GM/pref"
	case RKCache:
		return "GM/cache"
	}
	return fmt.Sprintf("RKMode(%d)", int(m))
}

// rkPrefBlock is the aggressive prefetch block size the RK kernel uses.
const rkPrefBlock = 256

// run executes phases on the machine with CE 0 monitored.
func run(m *core.Machine, cfg cfrt.Config, limit int64, phases ...cfrt.Phase) (Result, error) {
	bs := m.AttachBlockStats(0)
	rt := cfrt.New(m, cfg, phases...)
	res, err := rt.Run(limit)
	if err != nil {
		return Result{}, err
	}
	return Result{Result: res, Blocks: bs}, nil
}

// rkRank is the rank of the update: the A panel is n×rkRank.
const rkRank = 64

// rankBody is the body whose iteration j is column j of the update:
// rkRank chained multiply-add sweeps, sweep k reading the length-n stream
// panel[(k+skew·j) mod rkRank], then the store of the column cols[j] of
// C. The panel and the columns are slabs built once per kernel call (the
// panel once per cluster for GM/cache): the CE copies a source stream on
// issue and reads the store's stream while it runs, so a column allocates
// nothing.
func rankBody(n int, panel, cols []ce.Stream, skew int) cfrt.BodyFn {
	return func(j, k int, in *ce.Instr) bool {
		switch {
		case k < rkRank:
			s := (k + skew*j) % rkRank
			in.Op, in.N, in.Flops, in.Srcs = ce.OpVector, n, 2, panel[s:s+1:s+1]
		case k == rkRank:
			in.Op, in.N, in.Dst = ce.OpVector, n, &cols[j]
		default:
			return false
		}
		return true
	}
}

// panelStreams returns the rkRank column streams of an n-row panel at
// base: column k starts k·n words in.
func panelStreams(space ce.Space, base uint64, n, pref int) []ce.Stream {
	panel := make([]ce.Stream, rkRank)
	for k := range panel {
		panel[k] = ce.Stream{Space: space, Base: base + uint64(k*n), Stride: 1, PrefBlock: pref}
	}
	return panel
}

// RankUpdate computes a rank-64 update to an n×n matrix: C += A·B with A
// n×64 and B 64×n, all in global memory (2·64·n² flops).
func RankUpdate(m *core.Machine, n int, mode RKMode) (Result, error) {
	aBase := m.AllocGlobalAligned(n*rkRank, 64)
	cBase := m.AllocGlobalAligned(n*n, 64)
	cols := make([]ce.Stream, n)
	for j := range cols {
		cols[j] = ce.Stream{Space: ce.SpaceGlobal, Base: cBase + uint64(j*n), Stride: 1}
	}

	switch mode {
	case RKNoPref, RKPref:
		pref := 0
		if mode == RKPref {
			pref = rkPrefBlock
		}
		// One XDOALL over the n columns of C; each column performs 64
		// chained multiply-add sweeps over a column of A, then stores
		// the column of C. The panel sweep is skewed by column so
		// concurrent CEs read different columns of A instead of marching
		// over the same addresses in lockstep (the hand-coded kernel's
		// access pattern).
		body := rankBody(n, panelStreams(ce.SpaceGlobal, aBase, n, pref), cols, 1)
		return run(m, cfrt.Config{UseCedarSync: true}, 1<<40,
			cfrt.XDoall{N: n, Sched: cfrt.StaticSchedule, Body: body})

	case RKCache:
		// Phase 1: each cluster copies the A panel into a cluster work
		// array (prefetched global loads, cluster stores). Phase 2: the
		// columns of C are distributed over clusters; all A accesses hit
		// the cached work array.
		words := n * rkRank
		per := len(m.Clusters[0].CEs)
		chunk := (words + per - 1) / per
		// Part part of the copy reads copySrc[part] and writes
		// copyDst[i·per+part] on cluster i.
		copySrc := make([]ce.Stream, per)
		for part := range copySrc {
			copySrc[part] = ce.Stream{Space: ce.SpaceGlobal, Base: aBase + uint64(part*chunk), Stride: 1, PrefBlock: rkPrefBlock}
		}
		copyDst := make([]ce.Stream, len(m.Clusters)*per)
		columns := make([]cfrt.BodyFn, len(m.Clusters))
		for i, cl := range m.Clusters {
			workBase := cl.AllocLocal(words)
			for part := 0; part < per; part++ {
				copyDst[i*per+part] = ce.Stream{Space: ce.SpaceCluster, Base: workBase + uint64(part*chunk), Stride: 1}
			}
			lo := i * n / len(m.Clusters)
			columns[i] = rankBody(n, panelStreams(ce.SpaceCluster, workBase, n, 0), cols[lo:], 0)
		}
		copyPhase := cfrt.SDoall{
			N: len(m.Clusters), Static: true,
			Body: func(i int) []cfrt.ClusterPhase {
				return []cfrt.ClusterPhase{cfrt.CDoall{
					N: per, Static: true,
					Body: func(part, k int, in *ce.Instr) bool {
						cnt := min(chunk, words-part*chunk)
						if k > 0 || cnt <= 0 {
							return false
						}
						in.Op, in.N = ce.OpVector, cnt
						in.Srcs, in.Dst = copySrc[part:part+1:part+1], &copyDst[i*per+part]
						return true
					},
				}}
			},
		}
		computePhase := cfrt.SDoall{
			N: len(m.Clusters), Static: true,
			Body: func(i int) []cfrt.ClusterPhase {
				lo := i * n / len(m.Clusters)
				hi := (i + 1) * n / len(m.Clusters)
				return []cfrt.ClusterPhase{cfrt.CDoall{N: hi - lo, Body: columns[i]}}
			},
		}
		return run(m, cfrt.Config{UseCedarSync: true}, 1<<40, copyPhase, computePhase)
	}
	return Result{}, fmt.Errorf("kernels: unknown RK mode %d", mode)
}

// VectorLoad (VL) streams words from global memory with compiler-style
// 32-word prefetch blocks: the pure memory-access kernel of Table 2.
// Each CE loads total words in sweeps of n.
func VectorLoad(m *core.Machine, n, sweeps int) (Result, error) {
	base := m.AllocGlobalAligned(n*len(m.CEs), 64)
	// Iteration i's one source stream, from one slab for the machine: the
	// CE copies a stream on issue and never writes through Srcs.
	srcs := make([]ce.Stream, len(m.CEs))
	for i := range srcs {
		srcs[i] = ce.Stream{Space: ce.SpaceGlobal, Base: base + uint64(i*n), Stride: 1, PrefBlock: 32}
	}
	body := func(i, k int, in *ce.Instr) bool {
		if k > 0 {
			return false
		}
		in.Op, in.N, in.Srcs = ce.OpVector, n, srcs[i:i+1:i+1]
		return true
	}
	phases := make([]cfrt.Phase, 0, sweeps)
	for s := 0; s < sweeps; s++ {
		phases = append(phases, cfrt.XDoall{N: len(m.CEs), Sched: cfrt.StaticSchedule, Body: body})
	}
	return run(m, cfrt.Config{UseCedarSync: true}, 1<<40, phases...)
}

// TriMat (TM) computes y = T·x for a tridiagonal T of order n: three
// chained multiply-adds per element over the three diagonals plus the
// operand vector, using compiler-generated 32-word prefetches. 5 flops
// per element.
func TriMat(m *core.Machine, n int) (Result, error) {
	diag := make([]uint64, 3)
	for i := range diag {
		diag[i] = m.AllocGlobalAligned(n, 64)
	}
	xBase := m.AllocGlobalAligned(n, 64)
	yBase := m.AllocGlobalAligned(n, 64)

	p := len(m.CEs)
	// Part part's streams, built once: x and the three diagonals at
	// srcs[4·part:], y at ys[part].
	srcs := make([]ce.Stream, 4*p)
	ys := make([]ce.Stream, p)
	for part := range ys {
		off := uint64(part * n / p)
		for d, base := range [4]uint64{xBase, diag[0], diag[1], diag[2]} {
			srcs[4*part+d] = ce.Stream{Space: ce.SpaceGlobal, Base: base + off, Stride: 1, PrefBlock: 32}
		}
		ys[part] = ce.Stream{Space: ce.SpaceGlobal, Base: yBase + off, Stride: 1}
	}
	// Instruction k's flops per element: load x into vector registers;
	// a(i)·x(i-1), b(i)·x(i) as multiply-adds against the sub- and main
	// diagonals; c(i)·x(i+1) as a multiply and the final register-register
	// add; store y.
	flops := [5]int64{0, 2, 2, 1, 0}
	body := func(part, k int, in *ce.Instr) bool {
		cnt := (part+1)*n/p - part*n/p
		if cnt <= 0 || k >= len(flops) {
			return false
		}
		in.Op, in.N, in.Flops = ce.OpVector, cnt, flops[k]
		if s := 4*part + k; k < 4 {
			in.Srcs = srcs[s : s+1 : s+1]
		} else {
			in.Dst = &ys[part]
		}
		return true
	}
	return run(m, cfrt.Config{UseCedarSync: true}, 1<<40,
		cfrt.XDoall{N: p, Sched: cfrt.StaticSchedule, Body: body})
}
