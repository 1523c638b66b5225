//go:build race

package main

// raceEnabled reports whether the race detector is compiled in: the
// kernel-level report under the detector takes about a minute, so the
// test that runs one skips.
const raceEnabled = true
