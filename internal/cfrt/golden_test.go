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
)

// goldenRun executes one program on a fresh machine — on the stepped
// engine when asked — recording what it posts, and renders its golden
// line: total cycles, event count and an FNV-64a hash of the event stream
// in posting order.
func goldenRun(t *testing.T, stepped bool, name string, clusters int, cfg Config, phases []Phase) string {
	t.Helper()
	p := params.Default()
	p.Clusters = clusters
	m, err := core.New(p, core.Options{Stepped: stepped})
	if err != nil {
		t.Fatal(err)
	}
	rt := New(m, cfg, phases...)
	evs := recordEvents(rt)
	res, err := rt.Run(500_000_000)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	h := fnv.New64a()
	for _, e := range *evs {
		if err := binary.Write(h, binary.LittleEndian, e); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%s cycles=%d events=%d fnv64a=%016x\n", name, res.Cycles, len(*evs), h.Sum64())
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
		return only(func(_ int, in *ce.Instr) { *in = ce.Instr{Op: ce.OpScalar, Cycles: cycles, Flops: flops} })
	}
	out.WriteString(goldenRun(t, stepped, "guided-nosync", 4, Config{},
		[]Phase{XDoall{N: 150, Sched: GuidedSchedule, Body: scalar(40, 8)}}))
	out.WriteString(goldenRun(t, stepped, "static-nest", 4, Config{UseCedarSync: true},
		[]Phase{SDoall{N: 8, Static: true, Body: func(i int) []ClusterPhase {
			return []ClusterPhase{
				ClusterSerial{Body: func(_, k int, in *ce.Instr) bool {
					switch k {
					case 0:
						*in = ce.Instr{Op: ce.OpScalar, Cycles: 20}
					case 1:
						*in = ce.Instr{Op: ce.OpGlobalLoad, Addr: uint64(64 + i)}
					default:
						return false
					}
					return true
				}},
				CDoall{N: 20, Static: true, Body: scalar(int64(15+i), 4)},
				CDoall{N: 12, Body: scalar(25, 2)},
			}
		}}}))
	return out.Bytes()
}

// loopShapeLines runs the loop shapes goldenLines does not reach: a
// claimed (non-static) SDOALL on the lock path whose iterations run a
// cluster-serial step and a self-scheduled CDOALL, static XDOALLs whose N
// is not a multiple of P (one with more participants than iterations, so
// some chunks are empty) and a Serial → XDOALL → SDOALL program.
func loopShapeLines(t *testing.T, stepped bool) []byte {
	t.Helper()
	var out bytes.Buffer
	scalar := func(cycles, flops int64) BodyFn {
		return only(func(_ int, in *ce.Instr) { *in = ce.Instr{Op: ce.OpScalar, Cycles: cycles, Flops: flops} })
	}
	serial := func(cycles int64) BodyFn {
		return only(func(_ int, in *ce.Instr) { *in = ce.Instr{Op: ce.OpScalar, Cycles: cycles} })
	}
	out.WriteString(goldenRun(t, stepped, "claimed-nest-nosync", 3, Config{},
		[]Phase{SDoall{N: 10, Body: func(i int) []ClusterPhase {
			return []ClusterPhase{
				ClusterSerial{Body: serial(int64(10 + i))},
				CDoall{N: 14, Body: scalar(30, 2)},
			}
		}}}))
	out.WriteString(goldenRun(t, stepped, "static-uneven", 2, Config{UseCedarSync: true},
		[]Phase{XDoall{N: 37, Sched: StaticSchedule, Body: scalar(20, 4)}}))
	out.WriteString(goldenRun(t, stepped, "static-sparse", 1, Config{},
		[]Phase{XDoall{N: 5, Sched: StaticSchedule, Body: scalar(35, 1)}}))
	out.WriteString(goldenRun(t, stepped, "three-phase", 2, Config{UseCedarSync: true},
		[]Phase{
			Serial{Body: serial(120)},
			XDoall{N: 45, Body: scalar(25, 4)},
			SDoall{N: 5, Body: func(int) []ClusterPhase {
				return []ClusterPhase{CDoall{N: 11, Static: true, Body: scalar(18, 2)}}
			}},
		}))
	return out.Bytes()
}

// TestGoldenAcrossCommits pins behaviour across the two commits that
// changed how the runtime holds its control flow, each against a file
// generated at the commit before: testdata/golden_5271b73.txt
// (slice-of-pointers bodies, closure-per-poll waits; the change moved
// instruction storage into the CE and waits into participant state) and
// testdata/golden_981d579.txt (a closure chain per iteration, claim, join
// and barrier; the change made every loop a participant frame). The event
// engine and the stepped engine must each reproduce both — the
// cross-commit half of the byte-identity invariant, which the in-process
// stepped-vs-event gate cannot see. On a deliberate model change,
// regenerate the files from the failure output at the commit before the
// change under test.
func TestGoldenAcrossCommits(t *testing.T) {
	for _, g := range []struct {
		file  string
		lines func(t *testing.T, stepped bool) []byte
	}{
		{"testdata/golden_5271b73.txt", goldenLines},
		{"testdata/golden_981d579.txt", loopShapeLines},
	} {
		want, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatal(err)
		}
		for _, stepped := range []bool{false, true} {
			if got := g.lines(t, stepped); !bytes.Equal(got, want) {
				t.Errorf("stepped=%v engine differs from %s:\n%s", stepped, g.file, got)
			}
		}
	}
}
