// Package cycleint is the golden package for the cycleint check.
package cycleint

// Narrow cycle-named fields are flagged; int64 and non-cycle fields are
// fine (WordsPerCycle is a rate, not a count, but float escapes the rule
// by type, which is what we want).
type result struct {
	Cycles        int   // want `cycle-count field Cycles declared int`
	StartCycle    int32 // want `cycle-count field StartCycle declared int32`
	GoodCycles    int64
	WordsPerCycle float64
	Words         int
}

type simCycles int64

func narrowing(totalCycles int64, lineWords uint64) int {
	a := int(totalCycles)   // want `narrowing int64 cycle count totalCycles to int`
	b := int32(totalCycles) // want `narrowing int64 cycle count totalCycles to int32`
	_ = b
	// Widening and same-width moves are fine.
	var w int64 = totalCycles
	_ = w
	// Non-cycle narrowings (word counts, indices) are fine.
	c := int(lineWords)
	return a + c
}

// Named cycle types are recognized even when the identifier is bland.
func namedType(t simCycles) int32 {
	return int32(t) // want `narrowing int64 cycle count t to int32`
}

// A remainder by an int divisor fits in an int; one by an int64 divisor
// need not.
func remainders(cycle int64, n int, d int64) int {
	a := int((cycle + 1) % int64(n))
	b := int(cycle % d)          // want `narrowing int64 cycle count expression to int`
	c := int32(cycle % int64(n)) // want `narrowing int64 cycle count expression to int32`
	return a + b + int(c)
}
