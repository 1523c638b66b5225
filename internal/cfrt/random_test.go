package cfrt

import (
	"math/rand"
	"testing"

	"cedar/internal/ce"
)

// unit names one body execution: phase, iteration, and 1 + the CDOALL
// iteration inside an SDOALL body (0 elsewhere).
type unit struct{ phase, iter, sub int }

// randomProgram draws the next program of a seeded sequence: cluster
// count, runtime config and a mix of phase types, scheduling policies and
// cluster restrictions. want lists every unit the program must run; ran
// (when non-nil) is called from each unit's Done. A Serial body draws
// its cost when the runtime invokes it, so the program must run before
// the next one is drawn for the sequence to repeat.
func randomProgram(rng *rand.Rand, ran func(unit)) (clusters int, cfg Config, phases []Phase, want []unit) {
	done := func(u unit) func(int, int64, bool, int64) {
		if ran == nil {
			return nil
		}
		return func(int, int64, bool, int64) { ran(u) }
	}
	clusters = 1 + rng.Intn(4)
	cfg = Config{
		UseCedarSync: rng.Intn(2) == 0,
	}
	if rng.Intn(3) == 0 {
		cfg.Clusters = 1 + rng.Intn(clusters)
	}
	nPhases := 1 + rng.Intn(4)
	for pi := 0; pi < nPhases; pi++ {
		pi := pi
		switch rng.Intn(3) {
		case 0: // Serial
			want = append(want, unit{pi, 0, 0})
			phases = append(phases, Serial{Body: func(q []ce.Instr) []ce.Instr {
				return append(q, ce.Instr{Op: ce.OpScalar, Cycles: int64(1 + rng.Intn(40)),
					Done: done(unit{pi, 0, 0})})
			}})
		case 1: // XDoall with a random policy
			n := 1 + rng.Intn(60)
			sched := Schedule(rng.Intn(3))
			for i := 0; i < n; i++ {
				want = append(want, unit{pi, i, 0})
			}
			cost := int64(1 + rng.Intn(80))
			phases = append(phases, XDoall{N: n, Sched: sched,
				Body: func(i int, q []ce.Instr) []ce.Instr {
					return append(q, ce.Instr{Op: ce.OpScalar, Cycles: cost,
						Done: done(unit{pi, i, 0})})
				}})
		default: // SDoall with a CDoall nest
			n := 1 + rng.Intn(6)
			inner := 1 + rng.Intn(12)
			static := rng.Intn(2) == 0
			for i := 0; i < n; i++ {
				for j := 0; j < inner; j++ {
					want = append(want, unit{pi, i, j + 1})
				}
			}
			cost := int64(1 + rng.Intn(60))
			phases = append(phases, SDoall{N: n, Static: static,
				Body: func(i int) []ClusterPhase {
					return []ClusterPhase{CDoall{N: inner,
						Body: func(j int, q []ce.Instr) []ce.Instr {
							return append(q, ce.Instr{Op: ce.OpScalar, Cycles: cost,
								Done: done(unit{pi, i, j + 1})})
						}}}
				}})
		}
	}
	return clusters, cfg, phases, want
}

// TestRandomProgramsTerminateAndCover is a fuzz-style property test: the
// runtime must execute every iteration of every phase exactly once and
// terminate, for arbitrary mixes of phase types, scheduling policies,
// cluster restrictions and sync configurations.
func TestRandomProgramsTerminateAndCover(t *testing.T) {
	rng := rand.New(rand.NewSource(1993))
	for trial := 0; trial < 12; trial++ {
		counts := make(map[unit]int)
		clusters, cfg, phases, want := randomProgram(rng, func(u unit) { counts[u]++ })
		rt := New(mach(t, clusters), cfg, phases...)
		if _, err := rt.Run(500_000_000); err != nil {
			t.Fatalf("trial %d (%d clusters, cfg %+v): %v", trial, clusters, cfg, err)
		}
		for _, u := range want {
			if counts[u] != 1 {
				t.Fatalf("trial %d: unit %+v ran %d times", trial, u, counts[u])
			}
		}
		if len(counts) != len(want) {
			t.Fatalf("trial %d: %d units ran, want %d", trial, len(counts), len(want))
		}
	}
}
