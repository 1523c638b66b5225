package comparator

import "math"

// CM5 models a Thinking Machines CM-5 partition without floating-point
// accelerators running the banded matrix-vector products of [FWPS92].
//
// Two observations from the paper's quoted data pin the model's shape:
// the aggregate rate is nearly flat over a 16× range of problem sizes
// (28-32 MFLOPS for BW=3, 58-67 for BW=11 on 32 nodes), which means the
// dominant communication cost is per element — the CM Fortran data-motion
// overhead on every vector element — rather than a per-matvec latency;
// and the BW=11 rate is ≈2.1× the BW=3 rate, which a per-diagonal cost
// could not produce. A fixed per-operation latency plus a control-network
// reduction adds the small-N and large-P falloff.
type CM5 struct {
	NodeMFLOPS     float64 // sustained per-node compute rate on the kernel
	NodePeakMFLOPS float64 // per-node peak, the PPT efficiency denominator
	PerElemUS      float64 // data-motion overhead per matrix row (µs)
	LatencyUS      float64 // fixed per-matvec software/network latency (µs)
	ReduceUS       float64 // per-stage cost of the control-network reduction
}

// NewCM5 returns the model calibrated to [FWPS92]'s 32-node rates.
func NewCM5() CM5 {
	return CM5{
		NodeMFLOPS:     2.9,
		NodePeakMFLOPS: 4.5,
		PerElemUS:      3.6,
		LatencyUS:      90,
		ReduceUS:       12,
	}
}

// BandedFlops is the flop count of one matvec of order n with total
// bandwidth bw: 2·bw−1 flops per row.
func BandedFlops(n, bw int) int64 {
	return int64(n) * int64(2*bw-1)
}

// BandedSeconds is the time of one banded matvec of order n, bandwidth
// bw, on p nodes.
func (c CM5) BandedSeconds(n, bw, p int) float64 {
	rows := float64(n) / float64(p)
	perRowUS := float64(2*bw-1)/c.NodeMFLOPS + c.PerElemUS
	return (rows*perRowUS + c.LatencyUS + c.ReduceUS*math.Log2(float64(p))) / 1e6
}

// BandedMFLOPS is the aggregate rate of the banded matvec.
func (c CM5) BandedMFLOPS(n, bw, p int) float64 {
	return float64(BandedFlops(n, bw)) / (c.BandedSeconds(n, bw, p) * 1e6)
}

// BandedEfficiency is the rate per node over the node peak — the PPT
// efficiency used in the §4.3 scalability comparison.
func (c CM5) BandedEfficiency(n, bw, p int) float64 {
	return c.BandedMFLOPS(n, bw, p) / (float64(p) * c.NodePeakMFLOPS)
}
