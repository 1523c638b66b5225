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

# gofmt before vet: a stage that fails when gofmt -l lists any file, so
# formatting drift is caught by name rather than in review.
stage "gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "$unformatted"
  echo "gofmt: the files above need formatting (gofmt -w)" >&2
  exit 1
fi

stage "go vet ./..."
go vet ./...

# cedarvet runs after stock vet on purpose: its analyzers assume a
# vet-clean tree (no unreachable code, no misused builtins), so stock
# vet findings would only show up here as noise. The -json artifact is
# what CI uploads; on failure we print it so the findings are visible in
# the log too.
stage "cedarvet (nondeterminism, paramhygiene, cycleint, errflow, hotalloc)"
mkdir -p artifacts
if ! go run ./cmd/cedarvet -json ./... > artifacts/cedarvet.json; then
  cat artifacts/cedarvet.json
  echo "cedarvet: findings (see artifacts/cedarvet.json)" >&2
  exit 1
fi

stage "go test ./..."
# Each gate below runs once, in this pass or the -race pass after it; none
# of the tests named skips itself under -race or outside -short, so no
# line re-runs them by name. The comments are the inventory of what the
# two passes gate.
#
# This unraced pass is the only one that runs the full-report integration
# tests. The six report gates of internal/tables read four passes of
# WriteReport: P1, the evaluation plus degraded at n = 96 with all 13
# codes (175 points), the one pass that checks every claim of the paper
# the catalogue carries (TestEvaluationHoldsThePapersClaims) and that
# TestModelManifest hashes into testdata/model.sha256, one line per
# catalogue entry — the cross-commit pin on every entry's section and
# every point's exact cycles; the kernel report at n = 32 twice, each
# under its own hub, which TestWriteReportGolden byte-compares above the
# hub's attribution section against testdata generated at an earlier
# commit (the report format at other sizes), TestWriteReportKernelsOnly
# reads, and
# TestWriteReportDeterministic compares (both passes simulate every point:
# nothing memoizes a sweep point between runs); and
# TestWriteReportMethodologySections' five suite tables on two codes.
# Two more identity gates run in this pass only (they skip under -race,
# like the report gates): cmd/cedarsim's TestIdentityManifest runs the
# four cedarsim invocations listed in its testdata/identity.sha256
# in-process and hashes their stdout, -trace and -metrics into that file
# (its -small -n 32 run's report must also start with the golden);
# internal/bench's TestCampaignsMatchTheCommittedBaselines requires the
# three committed campaigns, and the smoke campaign on the stepped
# engine, to equal bench/BENCH_<area>.json byte for byte up to the
# measured section.
#
# Steady-state allocation gates (the count asserted is the production
# build's, so this pass is the one that matters; they are single-goroutine
# and pass under -race too). The complement of cedarvet's hotalloc
# analyzer: testing.AllocsPerRun asserts zero allocations per run on the
# warmed tick path (TestSteadyStateAllocs* in sim, cache, cfrt, network,
# gmem, prefetch) — cache Submit+Tick (hit and miss streams), Engine.Run
# over always-due Sleepers, the cfrt controller queue, the omega under
# uniform pooled traffic, streaming reads through every memory module, PFU
# re-arm at a fixed block length, and tag-store lookups on absent pages. A
# slide-forward slice queue allocates through append growth alone, which
# no syntactic rule can see. cfrt's TestSteadyStateAllocsWaitLoops: a
# barrier spin and a contended lock claim allocate the same number of
# objects however long the wait lasts; its TestSteadyStateAllocsLoops:
# every loop shape (XDOALL self-scheduled, static, guided; SDOALL static
# and claimed over cluster-serial, block- and self-claimed CDOALL steps;
# Cedar sync and lock path) allocates the same number of objects at N and
# at 4N iterations.
# TestBuildBudget (core) is the same idea for construction: core.New
# allocates a machine's wiring (≤ 243 KB and 92 objects Cedar, ≤ 2,874 KB
# and 690 Cedar64; under a hub as every point builds, 125 and 725), never
# its capacity, and TestBuildCostsNoObjectPerCE fails on one object per
# CE (two machines 24 CEs apart must differ by fewer than 24 objects).
# TestInstrumentCostsNoObjectPerCluster (core) fails on one object per
# cluster in the hub's instrumentation: what the hub adds to core.New
# must be the same on Cedar64 (64 clusters) as on Cedar (4), within 2.
# TestRuntimeCostsNoObjectPerParticipant (cfrt) fails on one object per
# participant in cfrt.New: a runtime over Cedar64 (512 CEs) must cost
# what one over Cedar (32) costs, within 8 — one completion callback per
# runtime, none per CE. TestUnobservedPFUKeepsNoArrivalRecord (prefetch):
# a PFU's first Arm allocates its buffer alone, and the arrival record
# beside it only under a BlockObserver; TestBlockSpanEndsAtLastArrival
# (prefetch): the last arrival a tracer is handed instead of the record
# is the record's maximum, NACKs, duplicates and stale replies included.
# TestPointRunBudget (bench) is the same idea for a whole point, first
# touches included: sharded's cedar16-vl512 stays within 616 objects.
# TestRunBudget (perfect) is the same idea for a whole Perfect proxy run:
# the two points that wait the most (TRACK auto without Cedar sync, QCD
# under KAP) stay within 220 and 149 objects, machine included (under
# -race, which keeps slices.Grow's temporary, within those + 15%).
# TestHitBudget (serve) is the same idea for one served request: a repeat
# answered from the memory tier through Handler, key included, stays
# within 42 objects (+ 15% under -race, whose sync.Pool drops some of
# what is put back).
go test ./...

stage "data-path benchmarks at 1x"
# One iteration of the data-path benchmarks, so the command that states
# the win in counts (heads/hop, modules/cycle) cannot rot.
go test -run '^$' -bench '^(BenchmarkOmegaTick|BenchmarkMemoryTick)$' -benchtime=1x ./internal/network ./internal/gmem

stage "go test -race ./..."
# The full-report integration tests skip themselves under -race (they
# multiply minutes of simulation by the detector's overhead); the line
# above runs them unraced. Everything else runs here with the detector
# watching:
#
# Jobs and engine equality, four gates over one harness of RunAll pairs
# compared by bytes (root: checkEquality, whose runs return report text,
# the -json payload, Chrome trace and metrics CSV; TestParallelVsSequentialEquality,
# TestFaultedRunDeterministic, TestSteppedVsEventEquality,
# TestSteppedVsEventDegraded). The cedarfleet worker pool
# must be invisible, pool enabled: -jobs 8 and -jobs 1 byte-identical — for
# healthy runs (t1 overheads membw) and for fault-injected (cedarfault)
# degraded runs alike; so must the campaign runner's, on the omega and
# the crossbar machine (root: TestBenchArtifactDeterminism).
# Three run configurations at once (tables: TestTwoEnvsAtOnce): a
# demo-plan Env at jobs 1 beside a healthy Env at jobs 4 and a healthy
# Env on the stepped engine, on one sweep, each byte-equal to its solo run
# and the stepped one to the event one — nothing a run executes under is
# process-wide, the engine schedule included, so they cannot see each
# other.
#
# Stepped-vs-event engine equivalence. The event wheel (internal/sim)
# skips sleeping components and jumps the clock over empty cycles; both
# must be invisible. The root TestSteppedVsEvent* gates run those healthy
# and degraded experiments on both engines and byte-compare every
# artifact; sim's
# TestRandomWakeInterleavingsMatchStepped is the seeded
# random-interleaving property test against an engine of sim.Plain
# wrappers, and also covers the hand-written wake-path scenarios (run
# inside the property test); both check the wheel from the inside after
# every run entry: soonest == min(wake) over the Sleepers.
# Instruction ownership rides the same line: a controller that rewrites
# its storage the moment Next returns matches a stored Program (ce:
# TestScribblingControllerMatchesProgram), and the runtime's cycles and
# tracer stream on the event and stepped engines match goldens generated
# at the commit before instructions moved into the CE and at the commit
# before loops became participant frames (cfrt: TestGoldenAcrossCommits).
# So does the occupancy-driven data path: the omega's bitset arbiter
# against the scan-every-switch reference on six geometries (same offers,
# deliveries, Stats and injections every cycle, occupancy invariants after
# every Tick; network: TestOccupancyArbiterMatchesScan,
# TestSparseLoadInspectsFewHeads), and gmem's active-module set against
# tick-every-module (same replies and counters, bare and with wakers,
# across skipped ticks; gmem: TestActiveSetMatchesEveryModule,
# TestWiredMemoryIsSkipped).
#
# cedarserve's bytes across commits: TestIdentityManifest (serve) pins
# two response bodies, key included, and the store's blob names in
# testdata/identity.sha256.
#
# cedarserve cached-vs-fresh response equality. The serving daemon's cache
# must be invisible: a response served from the in-process cache, from a
# coalesced in-flight computation, or from the durable on-disk store
# across a daemon restart must be byte-identical to the freshly simulated
# one — with the race detector watching the real concurrent submissions
# (serve: TestCacheHitByteEquality, TestCoalescedRequestsShareOneSimulation,
# TestPanicBecomes500). The cache hands out the slice it holds, so the
# first of those also fires concurrent hits at one key and requires the
# body still to equal the first (fleet: TestCacheHandsOutTheCachedValue
# is the contract from the cache's side). The daemon owns its disk tier:
# a stored key is served while another key's simulation holds the only
# admission slot, a panicking or failing simulation leaves no blob, and a
# body the client never receives is counted (serve: TestDiskHitTakesNoSlot,
# TestFailedSimulationLeavesNoBlob, TestWriteErrorsCounted; TestStatsEndpoint
# pins /v1/stats' key order). The store's own half is its
# durable round trip and what a crash can leave behind a Put — old blob,
# new blob or none, never torn bytes, no index to disagree with them
# (store: TestRoundTripDeterminism, TestCrashAtEveryStep,
# TestCorruptBlobReadsAsMiss). Plus the fleet-pool crash-safety
# regressions: a panicking job surfaces on the caller, never a stray
# goroutine, and a degraded entry is pinned to the key that names its
# plan (fleet: TestWorkerPanicRethrownOnCaller,
# TestHealthyAfterFaultedNotServedDegraded). In tables, where nothing is
# cached, the same concern is that a plan lives only in the Env that names
# it (TestHealthyEnvAfterFaultedEnv) and that every catalogue experiment
# builds under its Env's plan and engine
# (TestFaultedEnvReachesEveryExperiment).
go test -race ./...

stage "cedarbench smoke campaign + regression diff"
# Exact deterministic bytes of all three campaigns are gated in tier-1
# (TestCampaignsMatchTheCommittedBaselines). These stages remain the
# measured allocation gate (diff: mallocs within 30% of the baseline,
# beside its 5% simcycle threshold) and the end-to-end smoke of
# cedarbench run itself, which runs the
# matrix once per declared jobs value ([1, 8]) and fails on any
# cross-jobs byte difference.
go run ./cmd/cedarbench run -config bench/campaigns/smoke.json -out artifacts/BENCH_smoke.json -q
go run ./cmd/cedarbench diff bench/BENCH_smoke.json artifacts/BENCH_smoke.json

stage "cedarbench latency campaign (event-wheel win) + regression diff"
# The latency campaign is dominated by long memory waits, which the event
# wheel jumps over. Its exact bytes are gated in tier-1; this stage is
# its measured allocation gate and end-to-end cedarbench run smoke.
go run ./cmd/cedarbench run -config bench/campaigns/latency.json -out artifacts/BENCH_latency.json -q
go run ./cmd/cedarbench diff bench/BENCH_latency.json artifacts/BENCH_latency.json

stage "cedarbench wide campaign (16/64-cluster presets) + regression diff"
# The wide campaign covers Cedar16 and Cedar64. Its exact bytes are gated
# in tier-1; this stage is its measured allocation gate and end-to-end
# cedarbench run smoke.
go run ./cmd/cedarbench run -config bench/campaigns/wide.json -out artifacts/BENCH_wide.json -q
go run ./cmd/cedarbench diff bench/BENCH_wide.json artifacts/BENCH_wide.json

stage "fuzz smoke ($FUZZTIME per target)"
go test -run='^$' -fuzz='^FuzzOmegaRouting$' -fuzztime="$FUZZTIME" ./internal/network
go test -run='^$' -fuzz='^FuzzInstability$' -fuzztime="$FUZZTIME" ./internal/ppt
go test -run='^$' -fuzz='^FuzzBands$' -fuzztime="$FUZZTIME" ./internal/ppt
# The one on-disk format: arbitrary bytes under a blob's name open, and
# read as a verified payload or a counted miss.
go test -run='^$' -fuzz='^FuzzBlobOnDisk$' -fuzztime="$FUZZTIME" ./internal/store

stage ""
# The line ledger every re-anchor reads: non-test and test Go, whole
# module and outside the frozen cmd/cedarperf.
golines() { find . -name '*.go' "$@" -print0 | xargs -0 cat | wc -l; }
echo "non-test Go lines: $(golines ! -name '*_test.go') total, $(golines ! -name '*_test.go' ! -path './cmd/cedarperf/*') outside cmd/cedarperf"
echo "test Go lines: $(golines -name '*_test.go') total, $(golines -name '*_test.go' ! -path './cmd/cedarperf/*') outside cmd/cedarperf"
echo "OK in ${SECONDS}s: build, gofmt, vet, cedarvet, tests (allocation gates, report goldens, identity manifests), race tests (jobs, stepped, data-path and serve equality), bench campaigns and fuzz smoke all green"
