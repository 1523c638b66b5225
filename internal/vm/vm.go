// Package vm models the cost of Cedar's virtual memory: 4 KB pages whose
// translations each cluster faults in on first touch.
//
// The behaviour that matters to the paper is the TRFD study [MaEG92]: a
// multicluster program takes TLB-miss faults when each additional cluster
// first accesses pages for which a valid PTE already exists in global
// memory — the fault does no I/O, but the kernel must still service it.
// The improved TRFD had almost four times the page faults of the
// one-cluster version and spent close to 50% of its time in virtual
// memory activity until a distributed-memory rewrite removed the sharing.
package vm

import "cedar/internal/params"

// FirstTouchFaults predicts the fault count for a footprint of the given
// words shared by n clusters: every cluster first-touches every page
// (TRFD's "almost four times the page faults" on four clusters).
func FirstTouchFaults(p params.Machine, footprintWords int64, clusters int) int64 {
	pages := (footprintWords + int64(p.PageWords) - 1) / int64(p.PageWords)
	return pages * int64(clusters)
}

// MulticlusterPenaltySeconds converts the excess faults of a multicluster
// run over the one-cluster run into wall time: fault service plus the
// serialization in the kernel's page-table locks makes each excess fault
// cost PageFaultMul·TLBMissCost cycles of the critical path [MaEG92].
func MulticlusterPenaltySeconds(p params.Machine, footprintWords int64, clusters int) float64 {
	if clusters <= 1 {
		return 0
	}
	excess := FirstTouchFaults(p, footprintWords, clusters) -
		FirstTouchFaults(p, footprintWords, 1)
	cycles := excess * int64(p.TLBMissCost) * int64(p.PageFaultMul)
	return params.CyclesToSeconds(cycles)
}
