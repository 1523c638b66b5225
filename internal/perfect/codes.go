package perfect

import (
	"fmt"
	"slices"
	"strings"
)

// The thirteen Perfect Benchmarks® profiles. Each profile encodes what
// the paper and its companion CSRD reports say about the code: where its
// parallelism is, what KAP already exploited, what the automatable
// transformations added, what the Table 4 hand optimizations changed, and
// what limits it (granularity, placement, barriers, I/O, paging, scalar
// access). Flop counts are chosen so the serial times on the ≈2 MFLOPS
// scalar CE land in the right regime; absolute magnitudes are not the
// reproduction target, relative structure is.

// ADM: pseudospectral air-pollution model. Good loop-level parallelism
// once arrays are privatized; a serial control section caps the speedup
// in the intermediate band.
func ADM() Profile {
	return Profile{
		Name: "ADM", Flops: 1.2e9, Reps: 3000,
		Segments: []Segment{
			{Name: "dynamics", Frac: 0.55, Vector: true, VecKAP: true, ParAuto: true,
				Grain: 2000, Place: PlaceGlobal, WordsPerFlop: 0.5},
			{Name: "vertical-diffusion", Frac: 0.30, Vector: true, ParAuto: true,
				Grain: 800, Place: PlaceLocal, WordsPerFlop: 0.5},
			{Name: "control", Frac: 0.15},
		},
		YMPVec: 0.80, YMPParAuto: 0.20, YMPParHand: 0.60, Cray1Vec: 0.75,
	}
}

// ARC2D: implicit 2-D CFD. Almost fully vectorizable and parallelizable
// after automatable transformations — the suite's one high performer on
// Cedar. The hand version (Table 4: 68 s, 2.1×) eliminates a substantial
// number of unnecessary computations and aggressively distributes data
// into cluster memory [BrBo91].
func ARC2D() Profile {
	return Profile{
		Name: "ARC2D", Flops: 3e9, Reps: 1000,
		HandWork: 0.62,
		Segments: []Segment{
			{Name: "rhs-solver", Frac: 0.64, Vector: true, VecKAP: true, ParAuto: true,
				Grain: 4000, Place: PlaceGlobal, WordsPerFlop: 0.5, HandLocal: true},
			{Name: "filters", Frac: 0.30, Vector: true, ParAuto: true,
				Grain: 2000, Place: PlaceLocal, WordsPerFlop: 0.5},
			{Name: "boundary", Frac: 0.06},
		},
		YMPVec: 0.97, YMPParAuto: 0.75, YMPParHand: 0.93, Cray1Vec: 0.97,
	}
}

// BDNA: molecular dynamics of biomolecules in water. Vector-parallel
// force evaluation; the serial version spends a large fixed time on
// formatted I/O, which the hand version converts to unformatted (Table 4:
// 70 s, 1.7× from the I/O change alone).
func BDNA() Profile {
	return Profile{
		Name: "BDNA", Flops: 1e9, Reps: 2500,
		IOWords: 1_000_000,
		Segments: []Segment{
			{Name: "nonbonded-forces", Frac: 0.75, Vector: true, VecKAP: true, ParAuto: true,
				Grain: 3000, Place: PlaceGlobal, WordsPerFlop: 0.6},
			{Name: "correlation", Frac: 0.15, Vector: true, ParAuto: true,
				Grain: 1500, Place: PlaceLocal, WordsPerFlop: 0.4},
			{Name: "setup", Frac: 0.10},
		},
		YMPVec: 0.90, YMPParAuto: 0.50, YMPParHand: 0.88, Cray1Vec: 0.85,
	}
}

// DYFESM: structural dynamics with a very small benchmark problem. The
// parallel loops are fine-grained, so self-scheduling needs low-overhead
// Cedar synchronization (its "No Synchronization" slowdown), and the
// many short vector fetches from global memory on few processors make it
// the code that benefits most from prefetch. The hand version reshapes
// data structures, reimplements kernels with the prefetch unit via Xylem
// assembler, and exploits the hierarchical SDOALL/CDOALL structure
// [YaGa93] (Table 4: 31 s).
func DYFESM() Profile {
	return Profile{
		Name: "DYFESM", Flops: 3e8, Reps: 600,
		HandWork:      0.85,
		KAPOneCluster: true,
		Segments: []Segment{
			{Name: "element-loops", Frac: 0.60, Vector: true, VecKAP: true, ParAuto: true,
				Grain: 600, Place: PlaceGlobal, WordsPerFlop: 0.7, HandLocal: true, Hier: true},
			// The substructure solves have few, long iterations: limited
			// parallelism keeps only a handful of CEs busy streaming long
			// vectors from global memory — the prefetch-sensitive part.
			{Name: "substructure-solve", Frac: 0.32, Vector: true, ParAuto: true,
				Grain: 30000, Place: PlaceGlobal, WordsPerFlop: 0.7, Hier: true},
			{Name: "serial", Frac: 0.08},
		},
		YMPVec: 0.70, YMPParAuto: 0.15, YMPParHand: 0.50, Cray1Vec: 0.65,
	}
}

// FLO52: transonic flow by multigrid. Four of the five major routines
// need chains of multicluster barriers whose overhead hurts at the
// Perfect problem size; the hand version introduces a small amount of
// redundancy to collapse them into one multicluster barrier plus
// independent per-cluster barrier sequences on the concurrency control
// hardware [GJWY93] (Table 4: 33 s).
func FLO52() Profile {
	return Profile{
		Name: "FLO52", Flops: 6e8, Reps: 750,
		HandWork: 0.95,
		Segments: []Segment{
			{Name: "smoothing", Frac: 0.70, Vector: true, VecKAP: true, ParAuto: true,
				Grain: 1000, Place: PlaceGlobal, WordsPerFlop: 0.5,
				Chunks: 6, HandChunks: 2, Hier: true},
			{Name: "residual", Frac: 0.25, Vector: true, ParAuto: true,
				Grain: 1000, Place: PlaceLocal, WordsPerFlop: 0.4,
				Chunks: 2, HandChunks: 1},
			{Name: "serial", Frac: 0.05},
		},
		YMPVec: 0.96, YMPParAuto: 0.72, YMPParHand: 0.92, Cray1Vec: 0.93,
	}
}

// MDG: molecular dynamics of water. Coarse-grained pairwise force loops
// parallelize well after runtime dependence tests.
func MDG() Profile {
	return Profile{
		Name: "MDG", Flops: 1.4e9, Reps: 3500,
		Segments: []Segment{
			{Name: "pair-forces", Frac: 0.77, Vector: true, ParAuto: true,
				Grain: 4000, Place: PlaceGlobal, WordsPerFlop: 0.35},
			{Name: "intramolecular", Frac: 0.20, Vector: true, ParAuto: true,
				Grain: 1000, Place: PlaceLocal, WordsPerFlop: 0.4},
			{Name: "serial", Frac: 0.03},
		},
		YMPVec: 0.85, YMPParAuto: 0.45, YMPParHand: 0.95, Cray1Vec: 0.78,
	}
}

// MG3D: seismic migration. This version includes the elimination of file
// I/O (the paper's Table 3 footnote); depth extrapolation vectorizes and
// parallelizes well.
func MG3D() Profile {
	return Profile{
		Name: "MG3D", Flops: 2e9, Reps: 5000,
		Segments: []Segment{
			{Name: "depth-extrapolation", Frac: 0.80, Vector: true, VecKAP: true, ParAuto: true,
				Grain: 2500, Place: PlaceGlobal, WordsPerFlop: 0.5},
			{Name: "fft", Frac: 0.12, Vector: true, ParAuto: true,
				Grain: 600, Place: PlaceLocal, WordsPerFlop: 0.3},
			{Name: "serial", Frac: 0.08},
		},
		YMPVec: 0.94, YMPParAuto: 0.60, YMPParHand: 0.90, Cray1Vec: 0.90,
	}
}

// OCEAN: 2-D ocean circulation built on many short FFTs: fine-grained
// parallel loops that, like DYFESM, need low-overhead self-scheduling
// (the other code the paper names in the "No Synchronization" slowdown).
func OCEAN() Profile {
	return Profile{
		Name: "OCEAN", Flops: 8e8, Reps: 1600,
		KAPOneCluster: true,
		Segments: []Segment{
			{Name: "ffts", Frac: 0.55, Vector: true, VecKAP: true, ParAuto: true,
				Grain: 120, Place: PlaceGlobal, WordsPerFlop: 0.5},
			{Name: "field-updates", Frac: 0.35, Vector: true, ParAuto: true,
				Grain: 250, Place: PlaceGlobal, WordsPerFlop: 0.5},
			{Name: "serial", Frac: 0.10},
		},
		YMPVec: 0.85, YMPParAuto: 0.20, YMPParHand: 0.55, Cray1Vec: 0.80,
	}
}

// QCD: lattice gauge theory Monte Carlo. The serial random-number
// generator dominates and defeats automatic parallelization (automatable
// speedup 1.8); the hand-coded parallel generator raises the speed
// improvement to 20.8 (Table 4: 21 s).
func QCD() Profile {
	return Profile{
		Name: "QCD", Flops: 5e8, Reps: 1000,
		Segments: []Segment{
			{Name: "rng-update", Frac: 0.53, ParHand: true, Grain: 500},
			{Name: "rng-seed-chain", Frac: 0.02}, // stays serial even by hand
			{Name: "link-update", Frac: 0.35, Vector: true, ParAuto: true,
				Grain: 400, Place: PlaceGlobal, WordsPerFlop: 0.4},
			{Name: "measurements", Frac: 0.10, Vector: true, ParAuto: true,
				Grain: 800, Place: PlaceLocal, WordsPerFlop: 0.3},
		},
		YMPVec: 0.50, YMPParAuto: 0.05, YMPParHand: 0.70, Cray1Vec: 0.45,
	}
}

// SPEC77: global spectral weather. Vectorizable transforms with moderate
// parallel coverage.
func SPEC77() Profile {
	return Profile{
		Name: "SPEC77", Flops: 1.6e9, Reps: 4000,
		Segments: []Segment{
			{Name: "spectral-transforms", Frac: 0.60, Vector: true, VecKAP: true, ParAuto: true,
				Grain: 900, Place: PlaceGlobal, WordsPerFlop: 0.5},
			{Name: "physics", Frac: 0.30, Vector: true, ParAuto: true,
				Grain: 1200, Place: PlaceLocal, WordsPerFlop: 0.4},
			{Name: "serial", Frac: 0.10},
		},
		YMPVec: 0.95, YMPParAuto: 0.55, YMPParHand: 0.87, Cray1Vec: 0.92,
	}
}

// SPICE: circuit simulation — the suite's very poor performer on every
// machine. Mostly serial pointer-chasing and sparse-matrix work with a
// tiny floating-point fraction; even the hand version only reaches ≈26 s
// after new approaches in all major phases.
func SPICE() Profile {
	return Profile{
		Name: "SPICE", Flops: 2.5e8, Reps: 500,
		IOWords:      130_000,
		HandWork:     0.55,
		FlopFraction: 0.3,
		Segments: []Segment{
			{Name: "device-eval", Frac: 0.15, ParAuto: true, Grain: 80},
			{Name: "sparse-solve", Frac: 0.45, ScalarAccess: true, ParHand: true,
				Grain: 120, Place: PlaceGlobal, WordsPerFlop: 0.35},
			{Name: "serial-overhead", Frac: 0.40},
		},
		YMPVec: 0.05, YMPParAuto: 0.02, YMPParHand: 0.10, Cray1Vec: 0.05,
	}
}

// TRACK: missile tracking. Dominated by scalar global accesses — the
// reason the paper gives for its behaviour without prefetching — with
// modest parallelism.
func TRACK() Profile {
	return Profile{
		Name: "TRACK", Flops: 1.8e8, Reps: 450,
		FlopFraction:  0.6,
		KAPOneCluster: true,
		Segments: []Segment{
			{Name: "kalman-filters", Frac: 0.50, ScalarAccess: true, ParAuto: true,
				Grain: 120, Place: PlaceGlobal, WordsPerFlop: 0.35},
			{Name: "hypothesis", Frac: 0.25, ParAuto: true, Grain: 200},
			{Name: "serial", Frac: 0.25},
		},
		YMPVec: 0.25, YMPParAuto: 0.05, YMPParHand: 0.40, Cray1Vec: 0.22,
	}
}

// TRFD: two-electron integral transformation. The automatable version's
// multicluster runs take almost four times the page faults of the
// one-cluster version — TLB-miss faults as each additional cluster first
// touches pages — spending near half its time in virtual memory
// [MaEG92]; the hand version implements high-performance kernels that
// exploit the cluster caches and vector registers [AnGa93] and a
// distributed-memory rewrite that removes the paging (Table 4: 7.5 s).
func TRFD() Profile {
	return Profile{
		Name: "TRFD", Flops: 7e8, Reps: 1750,
		HandWork: 0.90, HandVM: true,
		VMFootprintWords: 2 << 20, VMPhases: 6,
		Segments: []Segment{
			{Name: "transform-matmuls", Frac: 0.81, Vector: true, VecKAP: true, ParAuto: true,
				Grain: 1500, Place: PlaceGlobal, WordsPerFlop: 0.5, HandLocal: true},
			{Name: "index-setup", Frac: 0.15, ParAuto: true, Grain: 500},
			{Name: "serial", Frac: 0.04},
		},
		YMPVec: 0.85, YMPParAuto: 0.25, YMPParHand: 0.75, Cray1Vec: 0.82,
	}
}

// All returns the full suite in the paper's (alphabetical) order.
func All() []Profile {
	return []Profile{
		ADM(), ARC2D(), BDNA(), DYFESM(), FLO52(), MDG(), MG3D(),
		OCEAN(), QCD(), SPEC77(), SPICE(), TRACK(), TRFD(),
	}
}

// Select returns the codes a comma-separated list names (the CLIs'
// -codes flag; case-insensitive), in suite order; the empty list is the
// full suite. A name that is no code is an error listing the valid ones.
func Select(list string) ([]Profile, error) {
	all := All()
	if list == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, c := range strings.Split(list, ",") {
		name := strings.ToUpper(strings.TrimSpace(c))
		if !slices.ContainsFunc(all, func(p Profile) bool { return p.Name == name }) {
			valid := make([]string, len(all))
			for i, p := range all {
				valid[i] = p.Name
			}
			return nil, fmt.Errorf("perfect: no code named %q (valid: %s)", c, strings.Join(valid, ", "))
		}
		want[name] = true
	}
	return slices.DeleteFunc(all, func(p Profile) bool { return !want[p.Name] }), nil
}

// HandOptimized returns the codes with Table 4 hand versions.
func HandOptimized() map[string]bool {
	return map[string]bool{
		"ARC2D": true, "BDNA": true, "FLO52": true, "DYFESM": true,
		"TRFD": true, "QCD": true, "SPICE": true,
	}
}
