// Package a exists to give cedarvet a deterministic nonzero finding
// set: its one cycle-count field is declared int, which the cycleint
// check reports.
package a

// Stats holds the planted finding.
type Stats struct {
	StallCycles int
}
