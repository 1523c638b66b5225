// Package cedar is a simulation-backed reproduction of the Cedar
// multiprocessor described in "The Cedar System and an Initial
// Performance Study" (Kuck et al., ISCA 1993).
//
// Cedar was a cluster-based shared-memory multiprocessor: four modified
// Alliant FX/8 clusters (eight computational elements each, with a shared
// four-way interleaved cache and a concurrency control bus) connected by
// two unidirectional multistage shuffle-exchange networks to a globally
// shared memory whose modules carry synchronization processors, with a
// per-CE data prefetch unit masking the global latency.
//
// This package is the public face of the library. It exposes:
//
//   - the machine model (NewMachine, Params, Options) — a deterministic
//     cycle-level simulator of the whole system;
//   - the CEDAR FORTRAN runtime abstractions (NewRuntime with XDoall,
//     SDoall, CDoall and Serial phases) for writing workloads;
//   - the paper's kernels (RankUpdate, VectorLoad, TriMat, CG);
//   - the Perfect Benchmarks® proxy suite (PerfectCodes, RunPerfect);
//   - the Practical Parallelism Test methodology (Speedup, Efficiency,
//     Instability, band classification);
//   - and the experiment catalogue that regenerates every table and
//     figure of the paper's evaluation, each run by name (Experiments,
//     RunAll, WriteReport).
//
// A minimal program:
//
//	m := cedar.NewMachine(cedar.DefaultParams(), cedar.Options{})
//	res, err := cedar.RankUpdate(m, 256, cedar.RKPref)
//	fmt.Printf("%.1f MFLOPS\n", res.MFLOPS)
//
// A custom workload is a list of runtime phases. A loop body writes
// instruction k of iteration i into the CE's own instruction register and
// reports whether that instruction exists; the CE asks for k = 0, 1, … as
// it becomes free:
//
//	rt := cedar.NewRuntime(m, cedar.RuntimeConfig{UseCedarSync: true},
//		cedar.XDoall{N: 100, Body: func(i, k int, in *cedar.Instr) bool {
//			if k > 0 {
//				return false
//			}
//			in.Op, in.Cycles, in.Flops = cedar.OpScalar, 25, 4
//			return true
//		}})
//	res, err := rt.Run(10_000_000)
package cedar

import (
	"cedar/internal/ce"
	"cedar/internal/cfrt"
	"cedar/internal/core"
	"cedar/internal/fault"
	"cedar/internal/kernels"
	"cedar/internal/params"
	"cedar/internal/perfect"
	"cedar/internal/ppt"
	"cedar/internal/scope"
	"cedar/internal/tables"
	"cedar/internal/xylem"
)

// The facade keeps a name if the package doc, an Example, a root test or
// README uses it, or if a kept name needs it: as the type of a parameter,
// result or field (Hub.Spans keeps TraceSpan), or as a member of its
// constant or var block (OpSync stays beside OpScalar). Everything else
// is reached through the commands: cedarsim runs the catalogue by name,
// cedarbench runs campaigns, and README maps each name that left the
// facade to the command that replaces it.

// Machine is a configured Cedar system: clusters of CEs, networks, global
// memory, and allocators for placing workload data.
type Machine = core.Machine

// Params is the machine parameter set; DefaultParams returns Cedar as
// built (4 clusters × 8 CEs at 170 ns).
type Params = params.Machine

// Options selects construction variants: network type, observing hub,
// fault plan, and Stepped — the pure per-cycle reference engine the event
// wheel must match byte for byte (the stepped-vs-event equivalence tests
// run the experiment suite both ways), for that gate and for debugging,
// not for tuning.
type Options = core.Options

// Fabric kinds for Options.
const (
	FabricOmega    = core.FabricOmega
	FabricCrossbar = core.FabricCrossbar
)

// CycleNS is the CE instruction cycle time in nanoseconds (170 ns).
const CycleNS = params.CycleNS

// DefaultParams returns the Cedar machine as built.
func DefaultParams() Params { return params.Default() }

// ScaledParams returns a Cedar-like machine scaled to the given cluster
// count (the PPT5 probe); TestScaledParamsThroughFacade keeps it in the
// facade.
func ScaledParams(clusters int) Params { return params.Scaled(clusters) }

// NewMachine builds a machine, panicking on invalid parameters; use
// core-level construction via NewMachineErr to handle errors.
func NewMachine(p Params, opt Options) *Machine { return core.MustNew(p, opt) }

// NewMachineErr builds a machine, returning configuration errors.
func NewMachineErr(p Params, opt Options) (*Machine, error) { return core.New(p, opt) }

// Result is an aggregate timing result.
type Result = core.Result

// Instruction-level workload types (for writing custom programs).
type (
	// Instr is one CE instruction.
	Instr = ce.Instr
	// Stream is a vector memory operand.
	Stream = ce.Stream
)

// Instruction opcodes and spaces.
const (
	OpScalar      = ce.OpScalar
	OpVector      = ce.OpVector
	OpGlobalLoad  = ce.OpGlobalLoad
	OpGlobalStore = ce.OpGlobalStore
	OpSync        = ce.OpSync
	OpFence       = ce.OpFence

	SpaceNone    = ce.SpaceNone
	SpaceGlobal  = ce.SpaceGlobal
	SpaceCluster = ce.SpaceCluster
)

// Runtime types: the CEDAR FORTRAN loop-scheduling layer.
type (
	// Runtime executes a phase program on a machine.
	Runtime = cfrt.Runtime
	// RuntimeConfig selects library options (Cedar sync, cluster count).
	RuntimeConfig = cfrt.Config
	// Phase is one machine-wide step.
	Phase = cfrt.Phase
	// Serial runs on CE 0.
	Serial = cfrt.Serial
	// XDoall spreads iterations across the whole machine.
	XDoall = cfrt.XDoall
	// SDoall schedules iterations on whole clusters.
	SDoall = cfrt.SDoall
	// CDoall spreads iterations across one cluster via the concurrency
	// control bus.
	CDoall = cfrt.CDoall
	// ClusterPhase is one step of an SDoall iteration, run by one
	// cluster: a ClusterSerial or a CDoall.
	ClusterPhase = cfrt.ClusterPhase
	// ClusterSerial runs on a cluster's master CE.
	ClusterSerial = cfrt.ClusterSerial
)

// NewRuntime builds a runtime over a machine for the given phases.
func NewRuntime(m *Machine, cfg RuntimeConfig, phases ...Phase) *Runtime {
	return cfrt.New(m, cfg, phases...)
}

// Kernels of the §4.1 memory study.
type (
	// KernelResult is a kernel run plus the monitored prefetch traffic.
	KernelResult = kernels.Result
	// RKMode selects the rank-update memory variant.
	RKMode = kernels.RKMode
	// CGConfig configures the conjugate gradient kernel.
	CGConfig = kernels.CGConfig
)

// Rank-update variants (Table 1).
const (
	RKNoPref = kernels.RKNoPref
	RKPref   = kernels.RKPref
	RKCache  = kernels.RKCache
)

// RankUpdate computes a rank-64 update to an n×n matrix (Table 1).
func RankUpdate(m *Machine, n int, mode RKMode) (KernelResult, error) {
	return kernels.RankUpdate(m, n, mode)
}

// VectorLoad streams words from global memory (the VL kernel of Table 2).
func VectorLoad(m *Machine, n, sweeps int) (KernelResult, error) {
	return kernels.VectorLoad(m, n, sweeps)
}

// TriMat computes a tridiagonal matrix-vector product (TM).
func TriMat(m *Machine, n int) (KernelResult, error) { return kernels.TriMat(m, n) }

// CG runs the 5-diagonal conjugate gradient solver of the PPT4 study.
func CG(m *Machine, cfg CGConfig) (KernelResult, error) { return kernels.CG(m, cfg) }

// Perfect Benchmark proxies.
type (
	// PerfectProfile describes one Perfect code.
	PerfectProfile = perfect.Profile
	// PerfectSpec selects a variant and the Table 3 ablations.
	PerfectSpec = perfect.Spec
	// PerfectOutcome is one measured, full-scale-scaled run.
	PerfectOutcome = perfect.Outcome
)

// Perfect variants.
const (
	PerfectSerial = perfect.Serial
	PerfectKAP    = perfect.KAP
	PerfectAuto   = perfect.Auto
	PerfectHand   = perfect.Hand
)

// PerfectCodes returns the thirteen-code suite.
func PerfectCodes() []PerfectProfile { return perfect.All() }

// RunPerfect executes one Perfect code variant on a fresh machine. An
// optional Hub observes the run.
func RunPerfect(p Params, code PerfectProfile, spec PerfectSpec, obs ...*Hub) (PerfectOutcome, error) {
	return perfect.Run(p, code, spec, obs...)
}

// Methodology: the Practical Parallelism Tests of §4.3.
type Band = ppt.Band

// Performance bands.
const (
	BandHigh         = ppt.High
	BandIntermediate = ppt.Intermediate
	BandUnacceptable = ppt.Unacceptable
)

// Speedup is serial time over parallel time.
func Speedup(serial, parallel float64) float64 { return ppt.Speedup(serial, parallel) }

// Efficiency is speedup per processor.
func Efficiency(speedup float64, p int) float64 { return ppt.Efficiency(speedup, p) }

// BandOf classifies a speedup on P processors against the P/2 and
// P/(2·log₂P) thresholds; ExampleBandOf keeps it in the facade.
func BandOf(speedup float64, p int) Band { return ppt.BandOfSpeedup(speedup, p) }

// Instability computes In(K, e): max/min performance after excluding the
// e most extreme outliers.
func Instability(perf []float64, e int) float64 { return ppt.Instability(perf, e) }

// Experiment catalogue: every table and figure of the evaluation, run by
// the name cedarsim takes ("t1", "degraded", ...):
//
//	exps, err := cedar.Experiments("t1")
//	err = cedar.RunAll(cedar.Env{}, cedar.Sizes{RankN: 256}, exps,
//		func(e cedar.Experiment, res cedar.ExperimentResult) error {
//			fmt.Print(res.Format())
//			return nil
//		})
type (
	// Env is the run configuration every experiment runs under: the
	// observing Hub, the fault plan, the worker count, the base machine
	// width, the engine (Stepped) and where progress lines go. The zero
	// Env is a quiet, unobserved healthy run on the as-built Cedar's
	// event wheel at GOMAXPROCS workers. Those six travel only in the
	// Env: two Envs in one process do not see each other, and every
	// point simulates — nothing is memoized between runs.
	Env = tables.Env
	// Sizes are the problem sizes a run uses; each experiment reads the
	// fields it has a use for, and a zero size runs at its default.
	Sizes = tables.Sizes
	// Experiment is one catalogue entry: a sweep of simulated points and
	// the table their outcomes make.
	Experiment = tables.Experiment
	// ExperimentResult is a finished experiment: Format renders it as the
	// paper-layout table, and it marshals to cedarsim's -json result.
	// (Result is taken by the machine's timing result.)
	ExperimentResult = tables.Result
)

// Experiments returns the named catalogue entries in the order given, or
// an error naming the first unknown name and listing the valid ones.
var Experiments = tables.Experiments

// RunAll runs experiments in order under an Env at the given sizes and
// hands each result to emit as soon as its table is assembled; a point
// two entries share simulates once per call. On the healthy default
// machine it judges the paper's claims about every entry it ran and,
// after the last emit, returns the broken ones as its error.
var RunAll = tables.RunAll

// Kernels names the report's kernel-level half in section order;
// Evaluation names every experiment of the paper's evaluation in report
// order: Experiments(Evaluation...) is the whole paper.
var (
	Kernels    = tables.Kernels
	Evaluation = tables.Evaluation
)

// WriteReport is RunAll plus headings: it writes the experiments' tables
// as one report, each followed by one line per paper claim about it. Its
// output is
// byte-identical across runs (see the determinism invariants in
// DESIGN.md).
var WriteReport = tables.WriteReport

// Multiprogramming: the Xylem OS behaviour the paper's single-user runs
// avoided.
type TimeSharer = xylem.TimeSharer

// NewTimeSharer gang-schedules several programs onto one machine with the
// given quantum (cycles), paying Xylem's cluster-task switch cost.
func NewTimeSharer(p Params, quantum int64, tasks ...Controller) *TimeSharer {
	return xylem.NewTimeSharer(p, quantum, tasks...)
}

// Controller feeds instructions to CEs; Runtime and TimeSharer implement it.
type Controller = ce.Controller

// FixedWork builds a uniform scalar workload for every CE — a background
// task for multiprogramming studies.
func FixedWork(instrs int, cycles int64) Controller {
	return xylem.NewFixedWork(instrs, cycles)
}

// Observability: the cedarscope hub (see internal/scope). Build a machine
// with Options{Scope: NewHub()} — or run experiments under Env{Hub: ...} —
// then export the run via WriteChromeTrace / WriteMetricsCSV or inspect
// Snapshot / Attribution programmatically.
type (
	// Hub is the whole-machine observability nexus: a metrics registry, a
	// cycle-stamped span tracer, and a cycle-attribution report. A nil
	// *Hub disables instrumentation at near-zero cost.
	Hub = scope.Hub
	// MetricSample is one named metric reading.
	MetricSample = scope.Sample
	// MetricKind says whether a Hub.Table metric is a counter or a gauge.
	MetricKind = scope.Kind
	// TraceSpan is one captured trace record.
	TraceSpan = scope.Span
	// AttributionRow is one component class's busy/stall/idle totals.
	AttributionRow = scope.AttrRow
)

// MetricCounter and MetricGauge are the two metric kinds.
const MetricCounter, MetricGauge = scope.KindCounter, scope.KindGauge

// NewHub builds an empty observability hub.
func NewHub() *Hub { return scope.NewHub() }

// WriteScopeArtifacts writes a hub's Chrome trace JSON and metrics CSV to
// the given paths (empty path = skip) — what the CLIs' -trace/-metrics
// flags do.
var WriteScopeArtifacts = scope.WriteArtifacts

// FormatAttribution renders the per-class cycle attribution table.
var FormatAttribution = scope.FormatAttribution

// Fault injection: the cedarfault layer (see internal/fault). A Plan is
// seed-deterministic data; build a machine with Options{Faults: plan}
// (or run an experiment under Env{Faults: plan}, what the CLIs' -faults
// flag does) and the machine degrades instead of crashing:
// dead banks remap the interleave, NACKed or lost prefetch reads retry
// with exponential backoff, and exhausted retries surface as an
// ErrDegraded result.
type (
	// FaultPlan is a seed plus a list of fault descriptions.
	FaultPlan = fault.Plan
	// Fault is one injected defect.
	Fault = fault.Fault
	// FaultKind names a fault mechanism.
	FaultKind = fault.Kind
	// DegradedRow is one scenario of the "degraded" experiment's table.
	DegradedRow = tables.DegradedRow
)

// Fault kinds.
const (
	FaultBankDead  = fault.BankDead
	FaultBankStall = fault.BankStall
	FaultStageJam  = fault.StageJam
	FaultLinkDrop  = fault.LinkDrop
	FaultPFUNack   = fault.PFUNack
)

// ErrDegraded marks a run that completed (or was abandoned) in degraded
// mode; check with errors.Is.
var ErrDegraded = fault.ErrDegraded

// DemoFaultPlan is the built-in dead-bank + stage-jam + NACK scenario.
var DemoFaultPlan = fault.DemoPlan
