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
	"slices"

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

// rkColumn appends one column's worth of the update to q: rkRank chained
// multiply-add sweeps, sweep k reading the length-n stream src(k), then
// the store of the column of C at cCol. It reserves its rkRank+1
// instructions and the runtime's loop branch once — grown an append at a
// time, a queue doubles its way to a column per CE and the rank-update
// points' allocated bytes go up, not down — and the source streams come
// from one slab: a body is built per column per CE, and one allocation
// per instruction would make program construction outweigh the
// simulation.
func rkColumn(q []ce.Instr, n int, cCol uint64, src func(k int) ce.Stream) []ce.Instr {
	q = slices.Grow(q, rkRank+2)
	srcs := make([]ce.Stream, rkRank)
	for k := range srcs {
		srcs[k] = src(k)
		q = append(q, ce.Instr{Op: ce.OpVector, N: n, Flops: 2, Srcs: srcs[k : k+1 : k+1]})
	}
	return append(q, ce.Instr{
		Op: ce.OpVector, N: n, Flops: 0,
		Dst: &ce.Stream{Space: ce.SpaceGlobal, Base: cCol, Stride: 1},
	})
}

// RankUpdate computes a rank-64 update to an n×n matrix: C += A·B with A
// n×64 and B 64×n, all in global memory (2·64·n² flops).
func RankUpdate(m *core.Machine, n int, mode RKMode) (Result, error) {
	aBase := m.AllocGlobalAligned(n*rkRank, 64)
	cBase := m.AllocGlobalAligned(n*n, 64)

	switch mode {
	case RKNoPref, RKPref:
		pref := 0
		if mode == RKPref {
			pref = rkPrefBlock
		}
		// One XDOALL over the n columns of C; each column performs 64
		// chained multiply-add sweeps over a column of A, then stores
		// the column of C.
		body := func(j int, q []ce.Instr) []ce.Instr {
			return rkColumn(q, n, cBase+uint64(j*n), func(kk int) ce.Stream {
				// Skew the panel sweep by column so concurrent CEs read
				// different columns of A instead of marching over the
				// same addresses in lockstep (the hand-coded kernel's
				// access pattern).
				k := (kk + j) % rkRank
				return ce.Stream{Space: ce.SpaceGlobal, Base: aBase + uint64(k*n), Stride: 1, PrefBlock: pref}
			})
		}
		return run(m, cfrt.Config{UseCedarSync: true}, 1<<40,
			cfrt.XDoall{N: n, Static: true, Body: body})

	case RKCache:
		// Phase 1: each cluster copies the A panel into a cluster work
		// array (prefetched global loads, cluster stores). Phase 2: the
		// columns of C are distributed over clusters; all A accesses hit
		// the cached work array.
		words := n * rkRank
		workBase := make([]uint64, len(m.Clusters))
		for i, cl := range m.Clusters {
			workBase[i] = cl.AllocLocal(words)
		}
		per := len(m.Clusters[0].CEs)
		chunk := (words + per - 1) / per
		copyPhase := cfrt.SDoall{
			N: len(m.Clusters), Static: true,
			Body: func(i int) []cfrt.ClusterPhase {
				return []cfrt.ClusterPhase{cfrt.CDoall{
					N: per, Static: true,
					Body: func(part int, q []ce.Instr) []ce.Instr {
						lo := part * chunk
						cnt := chunk
						if lo+cnt > words {
							cnt = words - lo
						}
						if cnt <= 0 {
							return q
						}
						return append(q, ce.Instr{
							Op: ce.OpVector, N: cnt, Flops: 0,
							Srcs: []ce.Stream{{Space: ce.SpaceGlobal, Base: aBase + uint64(lo), Stride: 1, PrefBlock: rkPrefBlock}},
							Dst:  &ce.Stream{Space: ce.SpaceCluster, Base: workBase[i] + uint64(lo), Stride: 1},
						})
					},
				}}
			},
		}
		computePhase := cfrt.SDoall{
			N: len(m.Clusters), Static: true,
			Body: func(i int) []cfrt.ClusterPhase {
				lo := i * n / len(m.Clusters)
				hi := (i + 1) * n / len(m.Clusters)
				return []cfrt.ClusterPhase{cfrt.CDoall{
					N: hi - lo,
					Body: func(jj int, q []ce.Instr) []ce.Instr {
						return rkColumn(q, n, cBase+uint64((lo+jj)*n), func(k int) ce.Stream {
							return ce.Stream{Space: ce.SpaceCluster, Base: workBase[i] + uint64(k*n), Stride: 1}
						})
					},
				}}
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
	body := func(i int, q []ce.Instr) []ce.Instr {
		srcs[i] = ce.Stream{Space: ce.SpaceGlobal, Base: base + uint64(i*n), Stride: 1, PrefBlock: 32}
		return append(q, ce.Instr{Op: ce.OpVector, N: n, Flops: 0, Srcs: srcs[i : i+1 : i+1]})
	}
	phases := make([]cfrt.Phase, 0, sweeps)
	for s := 0; s < sweeps; s++ {
		phases = append(phases, cfrt.XDoall{N: len(m.CEs), Static: true, Body: body})
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
	body := func(part int, q []ce.Instr) []ce.Instr {
		lo := part * n / p
		hi := (part + 1) * n / p
		cnt := hi - lo
		if cnt <= 0 {
			return q
		}
		off := uint64(lo)
		return append(q,
			// Load x into vector registers (no flops).
			ce.Instr{Op: ce.OpVector, N: cnt, Flops: 0,
				Srcs: []ce.Stream{{Space: ce.SpaceGlobal, Base: xBase + off, Stride: 1, PrefBlock: 32}}},
			// a(i)·x(i-1): multiply-add against the sub-diagonal.
			ce.Instr{Op: ce.OpVector, N: cnt, Flops: 2,
				Srcs: []ce.Stream{{Space: ce.SpaceGlobal, Base: diag[0] + off, Stride: 1, PrefBlock: 32}}},
			// b(i)·x(i): multiply-add against the main diagonal.
			ce.Instr{Op: ce.OpVector, N: cnt, Flops: 2,
				Srcs: []ce.Stream{{Space: ce.SpaceGlobal, Base: diag[1] + off, Stride: 1, PrefBlock: 32}}},
			// c(i)·x(i+1): multiply and final register-register add.
			ce.Instr{Op: ce.OpVector, N: cnt, Flops: 1,
				Srcs: []ce.Stream{{Space: ce.SpaceGlobal, Base: diag[2] + off, Stride: 1, PrefBlock: 32}}},
			// Store y.
			ce.Instr{Op: ce.OpVector, N: cnt, Flops: 0,
				Dst: &ce.Stream{Space: ce.SpaceGlobal, Base: yBase + off, Stride: 1}},
		)
	}
	return run(m, cfrt.Config{UseCedarSync: true}, 1<<40,
		cfrt.XDoall{N: p, Static: true, Body: body})
}
