// Package comparator provides calibrated analytic models of the machines
// the paper compares Cedar against: the Cray YMP/8 and Cray-1 vector
// machines (Perfect suite summaries, Tables 3, 5 and 6, Figure 3) and the
// Thinking Machines CM-5 without floating-point accelerators (the banded
// matrix-vector experiments of the PPT4 study, after [FWPS92]).
//
// The paper itself uses only published per-code summaries of these
// systems — MFLOPS, efficiency bands, instability — so an Amdahl-style
// model driven by each code's vectorizable and parallelizable fractions
// reproduces the comparison without the original hardware.
package comparator

// CodeSummary characterizes one Perfect code for the vector-machine
// models: total floating-point work and the fractions the compilers (or
// hand tuners) could exploit.
type CodeSummary struct {
	Name  string
	Flops int64
	// VecFrac is the fraction of work the Cray compiler vectorizes.
	VecFrac float64
	// ParAutoFrac is the fraction automatic restructuring (autotasking)
	// spreads across the YMP's 8 processors.
	ParAutoFrac float64
	// ParHandFrac is the same after manual optimization.
	ParHandFrac float64
	// Cray1VecFrac is the vectorization a modern compiler achieves on
	// the Cray-1 (Table 5's footnote).
	Cray1VecFrac float64
}

// YMP8 models the 8-processor Cray Y-MP: 6 ns clock (the paper notes the
// 170/6 ≈ 28.3 clock ratio to Cedar).
type YMP8 struct {
	// ScalarMFLOPS and VectorMFLOPS are sustained per-processor rates.
	ScalarMFLOPS float64
	VectorMFLOPS float64
	Procs        int
}

// NewYMP8 returns the calibrated model.
func NewYMP8() YMP8 {
	return YMP8{ScalarMFLOPS: 12, VectorMFLOPS: 160, Procs: 8}
}

// rate1 is the single-processor rate for a code (flops per µs).
func (y YMP8) rate1(c CodeSummary) float64 {
	return 1 / ((1-c.VecFrac)/y.ScalarMFLOPS + c.VecFrac/y.VectorMFLOPS)
}

// OneProcSeconds is the vectorized single-processor time.
func (y YMP8) OneProcSeconds(c CodeSummary) float64 {
	return float64(c.Flops) / (y.rate1(c) * 1e6)
}

// amdahl returns the multiprocessor time for parallel fraction p.
func (y YMP8) amdahl(t1, p float64) float64 {
	return t1 * ((1 - p) + p/float64(y.Procs))
}

// AutoSeconds is the baseline-compiler 8-processor time.
func (y YMP8) AutoSeconds(c CodeSummary) float64 {
	return y.amdahl(y.OneProcSeconds(c), c.ParAutoFrac)
}

// HandSeconds is the manually optimized 8-processor time.
func (y YMP8) HandSeconds(c CodeSummary) float64 {
	return y.amdahl(y.OneProcSeconds(c), c.ParHandFrac)
}

// AutoMFLOPS is the rate of the baseline-compiler run (Table 3's
// comparison column and Table 5's ensemble).
func (y YMP8) AutoMFLOPS(c CodeSummary) float64 {
	return float64(c.Flops) / (y.AutoSeconds(c) * 1e6)
}

// RestructuringEfficiency is Table 6's metric: the parallel speedup of
// automatic restructuring over the one-processor run, per processor.
func (y YMP8) RestructuringEfficiency(c CodeSummary) float64 {
	return y.OneProcSeconds(c) / y.AutoSeconds(c) / float64(y.Procs)
}

// HandEfficiency is Figure 3's metric for the manually optimized codes.
func (y YMP8) HandEfficiency(c CodeSummary) float64 {
	return y.OneProcSeconds(c) / y.HandSeconds(c) / float64(y.Procs)
}

// Cray1 models the single-processor Cray-1 with a modern compiler.
type Cray1 struct {
	ScalarMFLOPS float64
	VectorMFLOPS float64
}

// NewCray1 returns the calibrated model.
func NewCray1() Cray1 {
	return Cray1{ScalarMFLOPS: 4, VectorMFLOPS: 70}
}

// MFLOPS is the sustained rate for a code.
func (cr Cray1) MFLOPS(c CodeSummary) float64 {
	v := c.Cray1VecFrac
	return 1 / ((1-v)/cr.ScalarMFLOPS + v/cr.VectorMFLOPS)
}
