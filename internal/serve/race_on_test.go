//go:build race

package serve

// raceEnabled reports whether the race detector is compiled in. Its
// sync.Pool drops a random quarter of what is put back, so a request
// allocates a varying few objects more than in a production build.
const raceEnabled = true
