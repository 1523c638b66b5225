package ce_test

import (
	"fmt"
	"reflect"
	"testing"

	"cedar/internal/ce"
	"cedar/internal/core"
	"cedar/internal/network"
	"cedar/internal/params"
)

// scribbleLog is what one CE's program observed: the cycle each
// instruction completed at, in order, and every value a load or sync
// returned.
type scribbleLog struct {
	done    []string
	results []string
}

// scribbleProgram is one CE's instruction sequence with its callbacks
// bound to log. The two CEs that run it share the word at base, so the
// values their Test-And-Adds return depend on the order the machine
// serves them in; the last sync's test fails.
func scribbleProgram(id int, base uint64, log *scribbleLog) []ce.Instr {
	prog := []ce.Instr{
		{Op: ce.OpScalar, Cycles: int64(7 + 5*id), Flops: 3},
		{Op: ce.OpSync, Addr: base, Test: network.TestAlways, Mut: network.OpAdd, Value: int64(10 + id), Flops: 1},
		{Op: ce.OpGlobalStore, Addr: base + 1 + uint64(id), Value: int64(100 + id)},
		{Op: ce.OpFence},
		{Op: ce.OpGlobalLoad, Addr: base + 1 + uint64(id), Flops: 2},
		{Op: ce.OpVector, N: 96, Flops: 2,
			Srcs: []ce.Stream{{Space: ce.SpaceGlobal, Base: base + 64 + uint64(128*id), Stride: 1, PrefBlock: 32}}},
		{Op: ce.OpSync, Addr: base, Test: network.TestAlways, Mut: network.OpAdd, Value: 1},
		{Op: ce.OpSync, Addr: base, Test: network.TestEQ, TestArg: -1, Mut: network.OpWrite, Value: 99},
		{Op: ce.OpScalar, Cycles: 4, Flops: 5},
	}
	for i := range prog {
		i, load := i, prog[i].Op == ce.OpSync || prog[i].Op == ce.OpGlobalLoad
		prog[i].Done = func(_ int, v int64, passed bool, cy int64) {
			log.done = append(log.done, fmt.Sprintf("%d@%d", i, cy))
			if load {
				log.results = append(log.results, fmt.Sprintf("%d:%d/%v@%d", i, v, passed, cy))
			}
		}
	}
	return prog
}

// perCE routes Next to the controller of the asking CE.
type perCE map[int]ce.Controller

func (p perCE) Next(ceID int, cycle int64, in *ce.Instr) ce.Status {
	return p[ceID].Next(ceID, cycle, in)
}

// scribbler issues a sequence the hostile way the Controller contract
// allows: every instruction passes through one reused scratch slot that
// is poisoned the moment Next returns, and again from inside the
// instruction's own Done — which is what a runtime does when a poll's
// completion appends to the queue slot the poll was issued from.
type scribbler struct {
	t       *testing.T
	prog    []ce.Instr
	pos     int
	scratch ce.Instr
}

func (s *scribbler) poison() {
	s.scratch = ce.Instr{
		Op: ce.OpFence, Cycles: 1 << 40, Flops: -1 << 40, N: -1, Addr: 1 << 60,
		Done: func(int, int64, bool, int64) { s.t.Error("CE called the poisoned scratch's Done") },
	}
}

func (s *scribbler) Next(_ int, _ int64, in *ce.Instr) ce.Status {
	if s.pos == len(s.prog) {
		return ce.Finished
	}
	s.scratch = s.prog[s.pos]
	s.pos++
	if done := s.scratch.Done; done != nil {
		s.scratch.Done = func(id int, v int64, passed bool, cy int64) {
			s.poison()
			done(id, v, passed, cy)
			s.poison()
		}
	}
	*in = s.scratch
	s.poison()
	return ce.Ready
}

// TestScribblingControllerMatchesProgram pins the ownership half of the
// Controller contract: the CE executes from its own register, so a
// controller whose storage is rewritten as soon as Next returns — and
// again from inside a load's Done, before the CE reads the instruction's
// Flops — gives the same cycles, flops, returned values and completion
// order as a Program holding every instruction forever. One CE in each of
// two clusters.
func TestScribblingControllerMatchesProgram(t *testing.T) {
	type outcome struct {
		res   core.Result
		flops [2]int64
		logs  [2]scribbleLog
	}
	run := func(scribble bool) outcome {
		m := core.MustNew(params.Default(), core.Options{})
		base := m.AllocGlobalAligned(512, 64)
		ces := []*ce.CE{m.Clusters[0].CEs[0], m.Clusters[1].CEs[0]}
		var o outcome
		ctrl := perCE{}
		for i, c := range ces {
			prog := scribbleProgram(i, base, &o.logs[i])
			if scribble {
				ctrl[c.ID] = &scribbler{t: t, prog: prog}
				continue
			}
			p := &ce.Program{}
			for j := range prog {
				p.Instrs = append(p.Instrs, &prog[j])
			}
			ctrl[c.ID] = p
		}
		res, err := m.RunOn(ces, ctrl, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		o.res = res
		for i, c := range ces {
			o.flops[i] = c.Flops()
		}
		return o
	}
	stored, scribbled := run(false), run(true)
	if n := len(stored.logs[0].done); n != 9 || len(stored.logs[0].results) != 4 {
		t.Fatalf("stored program retired %d instructions with %d results, want 9 and 4",
			n, len(stored.logs[0].results))
	}
	if !reflect.DeepEqual(stored, scribbled) {
		t.Errorf("scribbling controller diverges from Program:\nstored    %+v\nscribbled %+v",
			stored, scribbled)
	}
}
