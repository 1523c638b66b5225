// Package hygiene is the golden package for the paramhygiene check.
package hygiene

import "fmt"

// Distinctive figures are flagged anywhere.
func distinctive() float64 {
	cycle := 170.0 // want `hardware magic number 170\.0 duplicates params\.CycleNS`
	peak := 768.0  // want `hardware magic number 768\.0 duplicates params\.WiringPeakMBps`
	return cycle + peak
}

// Collision-prone figures are flagged only in hardware-ish contexts.
type badConfig struct {
	LoadLatency int
	PrefDepth   int
}

func gated() badConfig {
	return badConfig{
		LoadLatency: 13,  // want `hardware magic number 13 duplicates params\.GlobalLoadLatency`
		PrefDepth:   512, // want `hardware magic number 512 duplicates params\.Machine\.PFUBufferWords`
	}
}

func gatedDecl() int {
	const busLatency = 13 // want `hardware magic number 13`
	prefBufWords := 512   // want `hardware magic number 512`
	return busLatency + prefBufWords
}

// The same values as sizes, bounds or orders stay clean.
func ungatedUses() int {
	sizes := []int{128, 256, 512}
	n := 512
	for i := 0; i < 13; i++ {
		n += sizes[i%3]
	}
	return n
}

// Quoting a figure with its unit in output text is flagged.
func banner() string {
	return fmt.Sprintf("wiring peak 768 MB/s at a 170 ns cycle") // want `paper figure "768 MB/s" baked into string`
}
