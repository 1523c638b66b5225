#!/usr/bin/env bash
# check.sh — the full local verification gate. Run from anywhere inside
# the repo; CI and pre-commit hooks should invoke exactly this script so
# there is one definition of "green".
#
#   FUZZTIME=30s scripts/check.sh    # longer fuzz smoke (default 5s each)
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-5s}"

# stage prints the elapsed seconds of the stage it ends, then the header
# of the one it starts ("" starts none), so the gate's time budget is a
# number per stage and in total rather than an impression.
SECONDS=0
stage_name=""
stage() {
  [ -z "$stage_name" ] || echo "    [$((SECONDS - stage_start))s] $stage_name"
  stage_name="$1" stage_start=$SECONDS
  [ -z "$1" ] || echo "==> $1"
}

stage "go build ./..."
go build ./...

stage "go vet ./..."
go vet ./...

# cedarvet runs after stock vet on purpose: its analyzers assume a
# vet-clean tree (no unreachable code, no misused builtins), so stock
# vet findings would only show up here as noise. The -json artifact is
# what CI uploads; on failure we print it so the findings are visible in
# the log too.
stage "cedarvet (hot-path allocs, layering, concurrency, error flow, determinism)"
mkdir -p artifacts
if ! go run ./cmd/cedarvet -json ./... > artifacts/cedarvet.json; then
  cat artifacts/cedarvet.json
  echo "cedarvet: findings (see artifacts/cedarvet.json)" >&2
  exit 1
fi

stage "go test ./..."
# This unraced pass is the only one that runs the full-report integration
# tests, among them TestWriteReportGolden (internal/tables): the kernel
# report byte-compared against testdata generated at an earlier commit —
# the cross-commit half of the byte-identity invariant, which the
# in-process jobs/stepped gates below cannot see.
go test ./...

stage "go test -race ./..."
# The full-report integration tests skip themselves under -race (they
# multiply minutes of simulation by the detector's overhead); the line
# above runs them unraced.
go test -race ./...

stage "cedarfleet parallel-vs-sequential equality (-race, pool enabled)"
# The worker pool must be invisible: -jobs 8 and -jobs 1 byte-identical
# report/JSON/trace/metrics, with the detector watching the real parallel
# execution — for healthy runs and for fault-injected (cedarfault)
# degraded runs alike. -count=1 defeats the test cache so the gate always
# exercises the pool.
go test -race -count=1 -run '^(TestParallelVsSequentialEquality|TestFaultedRunDeterministic|TestBenchArtifactDeterminism)$' .
# Two run configurations at once: a demo-plan Env at jobs 1 beside a
# healthy Env at jobs 4 on one sweep and the shared run cache, each
# byte-equal to its solo run — nothing a run executes under is
# process-wide, so they cannot see each other.
go test -race -count=1 -run '^TestTwoEnvsAtOnce$' ./internal/tables

stage "stepped-vs-event engine equivalence (-race)"
# The event wheel (internal/sim) skips sleeping components and jumps the
# clock over empty cycles; both must be invisible. These run the suite
# with the wheel on and with pure per-cycle stepping and byte-compare
# every artifact, plus the seeded random-interleaving property test.
go test -race -count=1 -run '^(TestSteppedVsEventEquality|TestSteppedVsEventDegraded)$' .
# The sim line also covers the hand-written next-cycle-path scenarios
# (run inside the property test) and the wake-heap bounds.
go test -race -count=1 -run '^(TestRandomWakeInterleavingsMatchStepped|TestWakeHeapBoundedWithPlainComponent|TestWakeHeapBoundedWhenDense)$' ./internal/sim

# Instruction ownership rides the same line: a controller that rewrites
# its storage the moment Next returns matches a stored Program (ce), and
# the runtime's cycles and tracer stream on the event and stepped engines
# match a golden generated at the commit before instructions moved into
# the CE (cfrt).
go test -race -count=1 -run '^TestScribblingControllerMatchesProgram$' ./internal/ce
go test -race -count=1 -run '^TestGoldenAcrossCommits$' ./internal/cfrt
# So does the occupancy-driven data path: the omega's bitset arbiter
# against the scan-every-switch reference on six geometries (same offers,
# deliveries, Stats and injections every cycle, occupancy invariants after
# every Tick), and gmem's active-module set against tick-every-module
# (same replies and counters, bare and with wakers, across skipped ticks).
go test -race -count=1 -run '^(TestOccupancyArbiterMatchesScan|TestSparseLoadInspectsFewHeads)$' ./internal/network
go test -race -count=1 -run '^(TestActiveSetMatchesEveryModule|TestWiredMemoryIsSkipped)$' ./internal/gmem

stage "steady-state allocation gates"
# The complement of cedarvet's hotalloc analyzer: testing.AllocsPerRun
# asserts zero allocations per run on the warmed tick path — cache
# Submit+Tick (hit and miss streams), Engine.Run over always-due
# Sleepers, the cfrt controller queue, the omega under
# uniform pooled traffic, streaming reads through every memory module, PFU
# re-arm at a fixed block length, and tag-store lookups on absent pages. A slide-forward slice queue allocates through
# append growth alone, which no syntactic rule can see. Run
# uninstrumented and uncached: the count asserted is the production
# build's, and the gates are single-goroutine, so -race adds nothing.
# The same pattern picks up cfrt's TestSteadyStateAllocsWaitLoops: a
# barrier spin and a contended lock claim allocate the same number of
# objects however long the wait lasts.
# TestBuildBudget is the same idea for construction: core.New allocates a
# machine's wiring (≤ 256 KB and 400 objects Cedar, ≤ 3 MB and 4,700
# Cedar64), never its capacity.
# TestRunBudget is the same idea for a whole Perfect proxy run: the two
# points that wait the most (TRACK auto without Cedar sync, QCD under
# KAP) stay within a few thousand objects, machine included.
go test -count=1 -run '^TestSteadyStateAllocs' ./internal/sim ./internal/cache ./internal/cfrt ./internal/network ./internal/gmem ./internal/prefetch
go test -count=1 -run '^TestBuildBudget$' ./internal/core
go test -count=1 -run '^TestRunBudget$' ./internal/perfect
# One iteration of the data-path benchmarks, so the command that states
# the win in counts (heads/hop, modules/cycle) cannot rot.
go test -run '^$' -bench '^(BenchmarkOmegaTick|BenchmarkMemoryTick)$' -benchtime=1x ./internal/network ./internal/gmem

stage "cedarserve cached-vs-fresh response equality (-race)"
# The serving daemon's cache must be invisible: a response served from
# the in-process cache, from a coalesced in-flight computation, or from
# the durable on-disk store across a daemon restart must be
# byte-identical to the freshly simulated one — with the race detector
# watching the real concurrent submissions. The store's own half of the
# contract is its durable round trip. Plus the fleet-pool crash-safety
# regressions: a panicking job surfaces on the caller, never a stray
# goroutine, a failed cache copy recomputes instead of aliasing, and a
# degraded entry is pinned to the key that names its plan — at the cache
# (fleet) and through the sweep helper for every catalogue experiment
# (tables: the plan fingerprint is an explicit key part, not ambient).
go test -race -count=1 -run '^(TestCacheHitByteEquality|TestCoalescedRequestsShareOneSimulation|TestPanicBecomes500)$' ./internal/serve
go test -race -count=1 -run '^TestRoundTripDeterminism$' ./internal/store
go test -race -count=1 -run '^(TestWorkerPanicRethrownOnCaller|TestCopyFailureRecomputesNeverAliases|TestHealthyAfterFaultedNotServedDegraded)$' ./internal/fleet
go test -race -count=1 -run '^(TestHealthyEnvAfterFaultedEnv|TestFaultedEnvReachesEveryExperiment)$' ./internal/tables

stage "cedarbench smoke campaign + regression diff"
# The smoke campaign runs the full matrix once per declared jobs value
# ([1, 8]) and fails itself if the deterministic sections differ, so a
# successful run is a cross-jobs byte-equality proof. The diff then
# gates simcycles (tight, they are deterministic) and allocations
# (loose, they drift with the toolchain) against the committed baseline.
go run ./cmd/cedarbench run -config bench/campaigns/smoke.json -out artifacts/BENCH_smoke.json -q
go run ./cmd/cedarbench diff bench/BENCH_smoke.json artifacts/BENCH_smoke.json -threshold 5% -alloc-threshold 30%

stage "cedarbench latency campaign (event-wheel win) + regression diff"
# The latency campaign is dominated by long memory waits — exactly what
# the event wheel jumps over — so its simcycles are also the regression
# gate on the wheel's scheduling (a missed wake changes cycle counts
# before it changes anything else).
go run ./cmd/cedarbench run -config bench/campaigns/latency.json -out artifacts/BENCH_latency.json -q
go run ./cmd/cedarbench diff bench/BENCH_latency.json artifacts/BENCH_latency.json -threshold 5% -alloc-threshold 30%

stage "cedarbench wide campaign (16/64-cluster presets) + regression diff"
# The wide campaign is the simcycle baseline for the scale-up machines:
# the diff gates Cedar16 and Cedar64 like any other committed baseline.
go run ./cmd/cedarbench run -config bench/campaigns/wide.json -out artifacts/BENCH_wide.json -q
go run ./cmd/cedarbench diff bench/BENCH_wide.json artifacts/BENCH_wide.json -threshold 5% -alloc-threshold 30%

stage "fuzz smoke ($FUZZTIME per target)"
go test -run='^$' -fuzz='^FuzzOmegaRouting$' -fuzztime="$FUZZTIME" ./internal/network
go test -run='^$' -fuzz='^FuzzInstability$' -fuzztime="$FUZZTIME" ./internal/ppt
go test -run='^$' -fuzz='^FuzzBands$' -fuzztime="$FUZZTIME" ./internal/ppt

stage ""
echo "OK in ${SECONDS}s: build, vet, cedarvet, tests, race tests, jobs, stepped and data-path equality, allocation gates, serve equality, bench campaigns and fuzz smoke all green"
