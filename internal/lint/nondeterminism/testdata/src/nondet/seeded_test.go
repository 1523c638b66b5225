package nondet

import "math/rand"

// Test files must seed their randomness too, so failures replay.
func fuzzInputs() []int {
	rng := rand.New(rand.NewSource(42))
	out := make([]int, 8)
	for i := range out {
		out[i] = rng.Intn(100)
	}
	_ = rand.Int() // want `global math/rand source \(rand\.Int\)`
	return out
}
