package cfrt

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"cedar/internal/ce"
)

// TestBodyIsAskedOneInstructionAtATime pins the BodyFn contract by playing
// a lone participant's CE by hand through a Serial phase of two
// instructions and a static XDOALL whose iteration i has i mod 3. Each
// iteration must be asked for k = 0, 1, … in order, exactly once each, up
// to the first k the body reports absent, with the register zeroed every
// time; the loop branch must follow an iteration's last instruction, the
// barrier fetch-add a Serial body's; and an empty iteration must cost the
// branch and nothing else.
func TestBodyIsAskedOneInstructionAtATime(t *testing.T) {
	asked, lengths := map[string][]int{}, map[string]int{}
	body := func(name string, length func(iter int) int) BodyFn {
		return func(iter, k int, in *ce.Instr) bool {
			key := fmt.Sprintf("%s%d", name, iter)
			asked[key] = append(asked[key], k)
			lengths[key] = length(iter)
			if !reflect.ValueOf(*in).IsZero() {
				t.Errorf("%s asked for instruction %d with a register holding %+v", key, k, *in)
			}
			if k >= length(iter) {
				return false
			}
			// The tag names the body's instruction in the issue stream;
			// no runtime-issued instruction carries flops.
			*in = ce.Instr{Op: ce.OpScalar, Cycles: 1, Flops: int64(1000*len(name) + 10*iter + k)}
			return true
		}
	}
	r := New(mach(t, 1), Config{UseCedarSync: true, MaxCEs: 1},
		Serial{Body: body("s", func(int) int { return 2 })},
		XDoall{N: 6, Sched: StaticSchedule, Body: body("xd", func(i int) int { return i % 3 })})
	names := map[step]string{
		stPhaseEnter: "enter", stBarrierArrive: "arrive", stBarrierRelease: "release",
		stLoopStart: "start", stIterDone: "branch",
	}
	id := r.ces[0].ID
	var in ce.Instr
	var stream []string
	for st := r.Next(id, 0, &in); st != ce.Finished; st = r.Next(id, 0, &in) {
		if st != ce.Ready {
			t.Fatalf("Next says %v with nothing outstanding; issued so far: %s", st, strings.Join(stream, " "))
		}
		switch {
		case in.Flops > 0:
			stream = append(stream, fmt.Sprintf("%d", in.Flops))
		case names[r.ctl[0].issued] != "":
			stream = append(stream, names[r.ctl[0].issued])
		default:
			stream = append(stream, "·")
		}
		if in.Done != nil {
			// The lone participant is the last to arrive anywhere.
			in.Done(id, 0, true, 0)
		}
	}
	want := "enter 1000 1001 arrive release " +
		"enter · · start branch 2010 branch 2020 2021 branch branch 2040 branch 2050 2051 branch arrive release"
	if got := strings.Join(stream, " "); got != want {
		t.Errorf("issue stream\n got %s\nwant %s", got, want)
	}
	for key, ks := range asked {
		n := lengths[key]
		ok := len(ks) == n+1
		for i, k := range ks {
			ok = ok && k == i
		}
		if !ok {
			t.Errorf("%s asked for k = %v, want 0 … %d in order, once each", key, ks, n)
		}
	}
	if len(asked) != 7 {
		t.Errorf("%d iterations asked, want the Serial body's one and the XDOALL's six: %v", len(asked), asked)
	}
}

// TestBodyLengthCostsNoHostMemory is the allocation gate on body length:
// a participant holds the instruction in its CE's register, not the
// iteration, so a static XDOALL on Cedar whose iterations are 65
// instructions long (a rank-update column) must allocate within 1 KB of
// one whose iterations are a single instruction. With every iteration
// appended to the participant's queue, each CE grows that queue to 66
// slots of 96 bytes and the long run allocates hundreds of KB more.
func TestBodyLengthCostsNoHostMemory(t *testing.T) {
	ofLength := func(n int) BodyFn {
		return func(_, k int, in *ce.Instr) bool {
			if k >= n {
				return false
			}
			*in = scalarInstr(1)
			return true
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	at := func(n int) uint64 {
		_, _, bytes := leastAllocs(t, func() *Runtime {
			return New(mach(t, 4), Config{UseCedarSync: true}, XDoall{N: 64, Sched: StaticSchedule, Body: ofLength(n)})
		})
		return bytes
	}
	at(65) // warm what the first run of a process grows
	short, long := at(1), at(65)
	t.Logf("Run allocates %d bytes with 1-instruction iterations, %d with 65", short, long)
	if long > short+1024 {
		t.Errorf("Run allocates %d bytes with 65-instruction iterations, %d with 1: a body's length must cost the host nothing", long, short)
	}
}
