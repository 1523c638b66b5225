package perfect

import (
	"fmt"

	"cedar/internal/ce"
	"cedar/internal/cfrt"
	"cedar/internal/core"
	"cedar/internal/params"
	"cedar/internal/scope"
	"cedar/internal/vm"
	"cedar/internal/xylem"
)

// Spec selects a variant and the Table 3 ablations.
type Spec struct {
	Variant Variant
	// NoPref disables the prefetch units (vector global accesses fall
	// back to the CE's two outstanding requests).
	NoPref bool
	// NoSync schedules loops through the lock-based library path instead
	// of Cedar synchronization instructions.
	NoSync bool
}

// Versions returns the suite's versions of a code by the names the
// workload vocabulary spells them with; "hand" exists only for the codes
// HandOptimized names.
func Versions() map[string]Spec {
	return map[string]Spec{
		"serial": {Variant: Serial}, "kap": {Variant: KAP}, "auto": {Variant: Auto},
		"auto-nosync": {Variant: Auto, NoSync: true}, "auto-nosync-nopref": {Variant: Auto, NoSync: true, NoPref: true},
		"hand": {Variant: Hand},
	}
}

// Outcome is one measured run, scaled to the full application.
type Outcome struct {
	Code      string
	Variant   Variant
	Seconds   float64 // full-scale execution time
	MFLOPS    float64
	SimCycles int64 // cycles actually simulated (one slice)
}

// Run executes a code variant on a freshly built healthy machine. An
// optional scope hub observes the run (callers namespace it via Sub).
func Run(pm params.Machine, p Profile, spec Spec, obs ...*scope.Hub) (Outcome, error) {
	var hub *scope.Hub
	if len(obs) > 0 {
		hub = obs[0]
	}
	m, err := core.New(pm, core.Options{Scope: hub})
	if err != nil {
		return Outcome{}, err
	}
	return RunOn(m, p, spec)
}

// RunOn executes a code variant on m, which must be freshly built: the
// caller chooses what the machine is observed by and runs under.
func RunOn(m *core.Machine, p Profile, spec Spec) (Outcome, error) {
	if err := p.Validate(); err != nil {
		return Outcome{}, err
	}
	b := &builder{m: m, p: p, spec: spec}
	phases, err := b.phases()
	if err != nil {
		return Outcome{}, err
	}
	cfg := cfrt.Config{UseCedarSync: !spec.NoSync}
	switch spec.Variant {
	case Serial:
		cfg.MaxCEs = 1
	case KAP:
		if p.KAPOneCluster {
			cfg.Clusters = 1
		}
	}
	rt := cfrt.New(m, cfg, phases...)
	res, err := rt.Run(1 << 40)
	if err != nil {
		return Outcome{}, fmt.Errorf("perfect %s %v: %w", p.Name, spec.Variant, err)
	}

	seconds := res.Seconds * float64(p.Reps)
	seconds += b.fixedSeconds(len(m.Clusters))
	work := float64(p.Flops) * p.flopFraction()
	if spec.Variant == Hand {
		work *= p.handWork()
	}
	return Outcome{
		Code:      p.Name,
		Variant:   spec.Variant,
		Seconds:   seconds,
		MFLOPS:    work / (seconds * 1e6),
		SimCycles: res.Cycles,
	}, nil
}

// fixedSeconds are the non-loop components: I/O (through the Xylem I/O
// model) and paging (through the vm first-touch model).
func (b *builder) fixedSeconds(clusters int) float64 {
	p, spec := b.p, b.spec
	io := xylem.DefaultIO()
	var s float64
	if p.IOWords > 0 {
		switch spec.Variant {
		case Hand:
			s += io.Seconds(p.IOWords, xylem.Unformatted)
		default:
			s += io.Seconds(p.IOWords, xylem.Formatted)
		}
	}
	// TRFD's TLB-fault penalty applies to multicluster parallel runs.
	if p.VMFootprintWords > 0 && clusters > 1 {
		phases := p.VMPhases
		if phases < 1 {
			phases = 1
		}
		pen := vm.MulticlusterPenaltySeconds(b.m.P, p.VMFootprintWords, clusters) * float64(phases)
		switch spec.Variant {
		case Auto:
			s += pen
		case Hand:
			if !p.HandVM {
				s += pen
			}
		}
	}
	return s
}

type builder struct {
	m    *core.Machine
	p    Profile
	spec Spec
}

// phases lowers the profile into a phase program for the variant.
func (b *builder) phases() ([]cfrt.Phase, error) {
	repFlops := b.p.Flops / int64(b.p.Reps)
	var phases []cfrt.Phase
	for i := range b.p.Segments {
		seg := &b.p.Segments[i]
		segFlops := int64(float64(repFlops) * seg.Frac)
		if segFlops <= 0 {
			continue
		}
		if b.spec.Variant == Hand {
			segFlops = int64(float64(segFlops) * b.p.handWork())
		}
		phases = append(phases, b.segmentPhases(seg, segFlops)...)
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("perfect %s: no work", b.p.Name)
	}
	return phases, nil
}

func (b *builder) segmentPhases(seg *Segment, segFlops int64) []cfrt.Phase {
	parallel, vector := b.execClass(seg)
	chunks := seg.Chunks
	if b.spec.Variant == Hand && seg.HandChunks > 0 {
		chunks = seg.HandChunks
	}
	if chunks < 1 {
		chunks = 1
	}
	chunkFlops := segFlops / int64(chunks)
	if chunkFlops < 1 {
		chunkFlops = 1
		chunks = 1
	}

	var phases []cfrt.Phase
	for c := 0; c < chunks; c++ {
		if !parallel {
			phases = append(phases, b.serialPhase(seg, chunkFlops, vector))
			continue
		}
		phases = append(phases, b.parallelPhase(seg, chunkFlops, vector))
	}
	return phases
}

// execClass decides whether the segment is parallel and vectorized under
// the current variant.
func (b *builder) execClass(seg *Segment) (parallel, vector bool) {
	switch b.spec.Variant {
	case Serial:
		return false, false
	case KAP:
		return seg.ParKAP, seg.VecKAP
	case Auto:
		return seg.ParKAP || seg.ParAuto, seg.Vector
	case Hand:
		return seg.ParKAP || seg.ParAuto || seg.ParHand, seg.Vector
	}
	return false, false
}

// placement resolves the segment's data placement for this variant.
func (b *builder) placement(seg *Segment) Placement {
	if b.spec.Variant == Hand && seg.HandLocal {
		return PlaceLocal
	}
	return seg.Place
}

// serialPhase is a chunk running on CE 0 only.
func (b *builder) serialPhase(seg *Segment, flops int64, vector bool) cfrt.Phase {
	if !vector {
		return cfrt.Serial{Body: scalarBody(flops)}
	}
	return cfrt.Serial{Body: b.vectorBody(seg, flops, b.segArray(seg, flops), 1)}
}

// scalarBody is the body of one scalar instruction of flops.
func scalarBody(flops int64) cfrt.BodyFn {
	return func(_, k int, in *ce.Instr) bool {
		if k > 0 {
			return false
		}
		in.Op, in.Cycles, in.Flops = ce.OpScalar, flops*scalarCPF, flops
		return true
	}
}

// parallelPhase is a chunk spread across the machine.
func (b *builder) parallelPhase(seg *Segment, flops int64, vector bool) cfrt.Phase {
	grain := int64(seg.Grain)
	if grain < 32 {
		grain = 32
	}
	n := int(flops / grain)
	if n < 1 {
		n = 1
	}
	grainFlops := flops / int64(n)
	arr := b.segArray(seg, flops)

	var body cfrt.BodyFn
	switch {
	case seg.ScalarAccess:
		body = scalarAccessBody(seg, grainFlops, arr)
	case vector:
		body = b.vectorBody(seg, grainFlops, arr, n)
	default:
		body = scalarBody(grainFlops)
	}

	if b.spec.Variant == Hand && seg.Hier {
		// SDOALL/CDOALL nest: clusters claim statically, CEs
		// self-schedule on the concurrency control bus.
		clusters := len(b.m.Clusters)
		perCluster := (n + clusters - 1) / clusters
		return cfrt.SDoall{N: clusters, Static: true, Body: func(cl int) []cfrt.ClusterPhase {
			lo := cl * perCluster
			cnt := perCluster
			if lo+cnt > n {
				cnt = n - lo
			}
			if cnt < 0 {
				cnt = 0
			}
			return []cfrt.ClusterPhase{cfrt.CDoall{N: cnt, Body: func(j, k int, in *ce.Instr) bool {
				return body(lo+j, k, in)
			}}}
		}}
	}
	return cfrt.XDoall{N: n, Body: body}
}

// segArrays gives each segment working storage; loop-local data is a
// small privatized region reused per cluster (high cache affinity),
// global data is a large region walked by iteration.
type segArray struct {
	place      Placement
	base       uint64
	words      uint64
	grainWords uint64
}

func (a segArray) at(iter int) segArray {
	b := a
	if a.words > 0 {
		b.base = a.base + (uint64(iter)*a.grainWords)%a.words
	}
	return b
}

func (b *builder) segArray(seg *Segment, flops int64) segArray {
	wpf := seg.WordsPerFlop
	if wpf <= 0 {
		wpf = 0.25
	}
	words := int(float64(flops) * wpf)
	if words < 64 {
		words = 64
	}
	grainWords := int(float64(seg.Grain) * wpf)
	if grainWords < 32 {
		grainWords = 32
	}
	if b.placement(seg) == PlaceLocal {
		// Privatized loop-local storage: one region per cluster, reused
		// across iterations (short-lived data, strong cache affinity).
		local := words
		if local > 8192 {
			local = 8192
		}
		var base uint64
		for i, cl := range b.m.Clusters {
			bb := cl.AllocLocal(local + 64)
			if i == 0 {
				base = bb
			}
		}
		return segArray{place: PlaceLocal, base: base, words: uint64(local), grainWords: uint64(grainWords)}
	}
	base := b.m.AllocGlobalAligned(words+64, 64)
	return segArray{place: PlaceGlobal, base: base, words: uint64(words), grainWords: uint64(grainWords)}
}

// vectorBody is the body whose iteration iter is vector instructions
// totalling flops with the segment's memory intensity, over arr.at(iter),
// for a loop of iters iterations. An iteration's operand streams come from
// one slab for the phase, indexed by iteration: the CE copies them when
// the instruction issues, so each instruction of the iteration rewrites
// its iteration's slots.
func (b *builder) vectorBody(seg *Segment, flops int64, arr segArray, iters int) cfrt.BodyFn {
	elems := int(flops / 2)
	if elems < 4 {
		elems = 4
	}
	const maxOp = 2048
	wpf := seg.WordsPerFlop
	// nstreams is instruction k's operand count; the first has the most.
	nstreams := func(k int) int {
		switch {
		case wpf >= 0.9:
			return 2
		case wpf >= 0.4:
			return 1
		case wpf >= 0.15 && k%2 == 0:
			return 1
		}
		return 0
	}
	width := nstreams(0)
	srcs := make([]ce.Stream, iters*width)
	return func(iter, k int, in *ce.Instr) bool {
		rem := elems - k*maxOp
		if rem <= 0 {
			return false
		}
		n := min(rem, maxOp)
		in.Op, in.N, in.Flops = ce.OpVector, n, 2
		if ns := nstreams(k); ns > 0 {
			a, at := arr.at(iter), iter*width
			in.Srcs = srcs[at : at+ns : at+ns]
			for s := range in.Srcs {
				in.Srcs[s] = b.stream(a, n, s == 0)
			}
		}
		return true
	}
}

// stream builds one operand stream over the segment array. Only the first
// stream of an instruction may use the CE's single PFU.
func (b *builder) stream(arr segArray, n int, first bool) ce.Stream {
	if arr.place == PlaceLocal {
		return ce.Stream{Space: ce.SpaceCluster, Base: arr.base, Stride: 1}
	}
	pref := 0
	if !b.spec.NoPref && first {
		pref = 32
	}
	base := arr.base
	if arr.words > 0 {
		base = arr.base + (uint64(n) % arr.words)
	}
	return ce.Stream{Space: ce.SpaceGlobal, Base: base, Stride: 1, PrefBlock: pref}
}

// scalarAccessBody models TRACK-style work: scalar global loads
// interleaved with short scalar computation.
func scalarAccessBody(seg *Segment, flops int64, arr segArray) cfrt.BodyFn {
	loads := int(float64(flops) * seg.WordsPerFlop)
	if loads < 1 {
		loads = 1
	}
	if loads > 48 {
		loads = 48
	}
	per := flops / int64(loads)
	return func(iter, k int, in *ce.Instr) bool {
		switch {
		case k >= 2*loads:
			return false
		case k%2 == 0:
			in.Op, in.Addr = ce.OpGlobalLoad, arr.base+(uint64(iter*loads+k/2)*7)%arr.words
		default:
			in.Op, in.Cycles, in.Flops = ce.OpScalar, per*scalarCPF, per
		}
		return true
	}
}
