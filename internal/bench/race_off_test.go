//go:build !race

package bench

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
