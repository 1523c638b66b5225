package xylem

import (
	"cedar/internal/ce"
	"cedar/internal/params"
)

// TimeSharer multiplexes several programs onto one machine the way Xylem
// multiprogrammed cluster tasks: each cluster is gang-scheduled — all
// eight CEs switch tasks together at quantum boundaries, paying a context
// switch — because the concurrency control bus only serves one task's
// loops at a time.
//
// The paper collected every measurement in single-user mode "to avoid the
// non-determinism of multiprogramming"; TimeSharer implements exactly the
// perturbation they were avoiding, so the library can demonstrate it:
// barrier- and loop-scheduling-heavy programs suffer far more than their
// share of the machine, because a task's barrier can spin while its
// partner CEs run a different task.
//
// Rotation decisions read machine-wide completion flags as of the
// calling CE's turn in the engine's tick order.
type TimeSharer struct {
	p       params.Machine
	quantum int64
	tasks   []ce.Controller

	cluster  []tsCluster
	finished [][]bool // [task][ceID]
	doneAt   []int64  // [task] cycle the task's last CE finished
	switches int64
}

type tsCluster struct {
	current  int
	switchAt int64
	// pendingSwitch[ceInCluster] is set when the CE still owes the
	// context-switch stall for the current rotation.
	pendingSwitch []bool
}

// switchCycles is a cluster-task context switch, 500 µs at 170 ns: the
// millisecond regime that pushed Cedar programs toward loop parallelism.
const switchCycles = 2941

// NewTimeSharer builds a sharer over the given programs. quantum is the
// scheduling quantum in cycles; each rotation costs a cluster's CEs a
// context switch (switchCycles).
func NewTimeSharer(p params.Machine, quantum int64, tasks ...ce.Controller) *TimeSharer {
	if quantum < 1 {
		quantum = 1
	}
	t := &TimeSharer{
		p:       p,
		quantum: quantum,
		tasks:   tasks,
		cluster: make([]tsCluster, p.Clusters),
		doneAt:  make([]int64, len(tasks)),
	}
	for i := range t.cluster {
		t.cluster[i] = tsCluster{
			switchAt:      quantum,
			pendingSwitch: make([]bool, p.CEsPerCluster),
		}
	}
	for range tasks {
		t.finished = append(t.finished, make([]bool, p.CEs()))
	}
	return t
}

// Switches reports how many cluster-level rotations occurred.
func (t *TimeSharer) Switches() int64 { return t.switches }

// DoneAt reports the cycle a task's last CE finished (0 if not yet).
func (t *TimeSharer) DoneAt(task int) int64 { return t.doneAt[task] }

// taskDone reports whether every CE finished the task.
func (t *TimeSharer) taskDone(task int) bool {
	for _, f := range t.finished[task] {
		if !f {
			return false
		}
	}
	return true
}

// Next implements ce.Controller: the running task fills in directly, and
// the context-switch stall is written into it too.
func (t *TimeSharer) Next(ceID int, cycle int64, in *ce.Instr) ce.Status {
	cl := &t.cluster[ceID/t.p.CEsPerCluster]
	inCluster := ceID % t.p.CEsPerCluster

	// Gang switch: the first CE of the cluster to cross the boundary
	// rotates the whole cluster; every CE then owes one switch stall.
	if cycle >= cl.switchAt {
		// Re-arm from now (a long-running instruction may have carried
		// the cluster past several boundaries). The switch stall itself
		// must not eat the whole quantum, so it is added on top —
		// otherwise a quantum shorter than a context switch would rotate
		// forever without running anything.
		cl.switchAt = cycle + switchCycles + t.quantum
		next := t.nextLiveTask(cl.current)
		if next != cl.current {
			cl.current = next
			t.switches++
			for i := range cl.pendingSwitch {
				cl.pendingSwitch[i] = true
			}
		}
	}
	if cl.pendingSwitch[inCluster] {
		cl.pendingSwitch[inCluster] = false
		*in = ce.Instr{Op: ce.OpScalar, Cycles: switchCycles}
		return ce.Ready
	}

	cur := cl.current
	if t.finished[cur][ceID] {
		// This CE has no more work in the current task; idle until the
		// next rotation (or finish if every task is done for it).
		for task := range t.tasks {
			if !t.finished[task][ceID] {
				return ce.Wait
			}
		}
		return ce.Finished
	}

	st := t.tasks[cur].Next(ceID, cycle, in)
	if st == ce.Finished {
		t.finished[cur][ceID] = true
		if t.taskDone(cur) && t.doneAt[cur] == 0 {
			t.doneAt[cur] = cycle
		}
		return ce.Wait
	}
	return st
}

// nextLiveTask returns the next task with any unfinished CE, or cur.
func (t *TimeSharer) nextLiveTask(cur int) int {
	n := len(t.tasks)
	for off := 1; off <= n; off++ {
		cand := (cur + off) % n
		if !t.taskDone(cand) {
			return cand
		}
	}
	return cur
}

// FixedWork is a simple gang of identical scalar workloads — every CE
// executes instrs scalar operations of the given length. Useful as a
// background task in multiprogramming studies.
type FixedWork struct {
	instrs int
	cycles int64
	pos    map[int]int
}

// NewFixedWork builds the workload.
func NewFixedWork(instrs int, cycles int64) *FixedWork {
	return &FixedWork{instrs: instrs, cycles: cycles, pos: map[int]int{}}
}

// Next implements ce.Controller.
func (f *FixedWork) Next(ceID int, cycle int64, in *ce.Instr) ce.Status {
	if f.pos[ceID] >= f.instrs {
		return ce.Finished
	}
	f.pos[ceID]++
	*in = ce.Instr{Op: ce.OpScalar, Cycles: f.cycles, Flops: 1}
	return ce.Ready
}
