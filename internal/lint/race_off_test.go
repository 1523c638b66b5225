//go:build !race

package lint_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
