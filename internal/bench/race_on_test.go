//go:build race

package bench

// raceEnabled reports whether the race detector is compiled in: the test
// that runs the committed campaigns skips under it, and
// TestRunDeterministicAcrossJobs stays the campaign runner's raced gate.
const raceEnabled = true
