// Package nondet is the golden package for the nondeterminism check.
package nondet

import (
	"math/rand"
	"time"
)

func globalRand() int {
	rand.Seed(1)        // want `global math/rand source \(rand\.Seed\)`
	x := rand.Intn(10)  // want `global math/rand source \(rand\.Intn\)`
	y := rand.Float64() // want `global math/rand source \(rand\.Float64\)`
	_ = y
	return x
}

// seededRand is the approved pattern: an explicit source replays.
func seededRand() int {
	rng := rand.New(rand.NewSource(1993))
	return rng.Intn(10)
}

// A seed drawn from the global source does not replay either.
func unreplayable() *rand.Rand {
	return rand.New(rand.NewSource(rand.Int63())) // want `global math/rand source \(rand\.Int63\)`
}

// The wall clock is not this check's business: the byte-identity gates
// catch it in output.
func wallClock() time.Duration {
	return time.Since(time.Now())
}
