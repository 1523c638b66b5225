package cfrt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"testing"

	"cedar/internal/ce"
	"cedar/internal/core"
	"cedar/internal/params"
	"cedar/internal/perfmon"
)

// goldenRun executes one program on a fresh machine — on the stepped
// engine when asked — with a tracer attached and renders its golden line:
// total cycles, event count and an FNV-64a hash of the tracer's event
// stream in posting order.
func goldenRun(t *testing.T, stepped bool, name string, clusters int, cfg Config, phases []Phase) string {
	t.Helper()
	tr := perfmon.NewTracer(4)
	p := params.Default()
	p.Clusters = clusters
	m, err := core.New(p, core.Options{Stepped: stepped})
	if err != nil {
		t.Fatal(err)
	}
	rt := New(m, cfg, phases...)
	rt.SetTracer(tr)
	res, err := rt.Run(500_000_000)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	h := fnv.New64a()
	for _, e := range tr.Events() {
		if err := binary.Write(h, binary.LittleEndian, e); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%s cycles=%d events=%d fnv64a=%016x\n", name, res.Cycles, len(tr.Events()), h.Sum64())
}

// goldenLines runs the pinned programs on the given engine:
// the 12 seeded programs of TestRandomProgramsTerminateAndCover, a guided
// XDOALL on the lock path (contended lock retries, then a barrier spin)
// and a static SDOALL whose iterations run a cluster-serial step, a
// block-claimed CDOALL and a self-scheduled one.
func goldenLines(t *testing.T, stepped bool) []byte {
	t.Helper()
	var out bytes.Buffer
	rng := rand.New(rand.NewSource(1993))
	for trial := 0; trial < 12; trial++ {
		clusters, cfg, phases, _ := randomProgram(rng, nil)
		out.WriteString(goldenRun(t, stepped, fmt.Sprintf("random/%d", trial), clusters, cfg, phases))
	}
	scalar := func(cycles, flops int64) BodyFn {
		return func(_ int, q []ce.Instr) []ce.Instr {
			return append(q, ce.Instr{Op: ce.OpScalar, Cycles: cycles, Flops: flops})
		}
	}
	out.WriteString(goldenRun(t, stepped, "guided-nosync", 4, Config{},
		[]Phase{XDoall{N: 150, Sched: GuidedSchedule, Body: scalar(40, 8)}}))
	out.WriteString(goldenRun(t, stepped, "static-nest", 4, Config{UseCedarSync: true},
		[]Phase{SDoall{N: 8, Static: true, Body: func(i int) []ClusterPhase {
			return []ClusterPhase{
				ClusterSerial{Body: func(q []ce.Instr) []ce.Instr {
					return append(q,
						ce.Instr{Op: ce.OpScalar, Cycles: 20},
						ce.Instr{Op: ce.OpGlobalLoad, Addr: uint64(64 + i)},
					)
				}},
				CDoall{N: 20, Static: true, Body: scalar(int64(15+i), 4)},
				CDoall{N: 12, Body: scalar(25, 2)},
			}
		}}}))
	return out.Bytes()
}

// TestGoldenAcrossCommits pins behaviour across the commit that moved
// instruction storage into the CE and waits into participant state:
// testdata/golden_5271b73.txt was generated at the parent commit 5271b73
// (slice-of-pointers bodies, closure-per-poll waits), and the event
// engine and the stepped engine must each reproduce it — the cross-commit
// half of the byte-identity invariant, which the in-process
// stepped-vs-event gate cannot see. On a deliberate model change,
// regenerate the file from the failure output at the commit before the
// change under test.
func TestGoldenAcrossCommits(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_5271b73.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, stepped := range []bool{false, true} {
		if got := goldenLines(t, stepped); !bytes.Equal(got, want) {
			t.Errorf("stepped=%v engine differs from testdata/golden_5271b73.txt:\n%s", stepped, got)
		}
	}
}
