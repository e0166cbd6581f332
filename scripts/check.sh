#!/usr/bin/env bash
# Builds and tests the ten verification configs:
#  1. the default Release build (tier-1: what CI and users run),
#  2. a Debug + ASan/UBSan build (BATCHLIN_SANITIZE=ON), which also keeps
#     assertions alive so the debug-only workspace-binder name checks run,
#  3. a Debug + ThreadSanitizer build (BATCHLIN_SANITIZE=thread) running
#     the serve:: tests, which exercise the service's submit/worker/reply
#     handoffs from many host threads at once, in the default launch mode
#     and again under BATCHLIN_LAUNCH_MODE=graph_replay so the per-worker
#     recording caches run under TSan too, and
#  4. a BATCHLIN_XPU_CHECK build running the kernel portability sanitizer:
#     the fixture kernels must each trigger their diagnostic, and every
#     shipped solver kernel must pass the full checker (shadow state,
#     phase-hazard scan, shuffled lane-order adversary) clean, and
#  5. the resilience soak under the checked build: the randomized fault
#     schedules (launch failures, SLM alloc failures, NaN/bitflip
#     poisoning) run against the instrumented kernels, proving the fault
#     injector itself is race- and UB-free and that recovery paths hold
#     up with the sanitizer watching, and
#  6. the serve and resilience suites re-run under
#     BATCHLIN_LAUNCH_MODE=graph_replay, so every fused batch is
#     submitted through the worker's graph cache (record/rebind/replay at
#     replay cost) instead of eagerly: results must stay bit-identical and
#     survive the fault schedules (a replay hitting a device fault
#     invalidates the cached graph and re-records), and
#  7. the serve, mixed-precision, resilience, and graph-record suites
#     re-run under BATCHLIN_STORAGE=fp32, flipping the library's default
#     storage precision: the service normalizes every eligible request to
#     fp32 storage, the coalescing keys must keep policies separated, the
#     refinement loop must still restore FP64 accuracy, and the fallback
#     chain must recover fp32-storage batches. (The plain solver
#     suite is intentionally excluded: fp32 storage floors true residuals
#     near fp32 epsilon by design, which is exactly what its FP64-accuracy
#     assertions reject — that interplay is covered by the dedicated
#     MixedPrecision/Refine tests instead.), and
#  8. the serve, shard, and resilience suites re-run with
#     BATCHLIN_SHARDS=2, spreading every test service over two device
#     shards (cost-model routing, work stealing, per-shard breakers) with
#     the graph-cache submit path (graph_replay): results must be
#     bit-identical to the unsharded runs and the fault schedules must
#     stay contained to the shard they strike, and
#  9. a BATCHLIN_CONC_CHECK build running the conc:: concurrency model
#     checker over the lock-free serve/shard protocols: the ring,
#     reply-slot, doorbell, and lane-counter invariants are explored
#     exhaustively at 2-3 threads plus >= 10k seeded random schedules at
#     higher thread counts (the seed set is fixed inside the tests, so
#     the run is reproducible), and the seeded mutant suite proves the
#     detector catches each weakened memory order and dropped wake. The
#     serve/shard unit suites also re-run in this build, proving the
#     instrumented shims are transparent when no engine is driving, and
# 10. the failover and chaos-soak suites (device-loss fault model, lane
#     eviction + queue migration, hang watchdog, half-open probes,
#     priority shedding, brownout) at two shards: a bounded-runtime
#     seeded soak mixing shard death/revival, a kernel hang, NaN poison,
#     and open-loop overload, asserting zero lost tickets, balanced
#     backlog books after drain, and bit-identity of successful solves
#     against solo references — in the Release build and again under the
#     instrumented checked build.
# The sanitizer passes are what prove the pooled launch resources, the
# reused spill backing, the serving layer's lock-free handoffs, and the
# solver kernels' SPMD discipline race- and UB-free.
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail

JOBS=${1:-$(nproc)}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"

echo "== config 1/10: Release (build/)"
cmake -B build -S . -G Ninja >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build -j "$JOBS" --output-on-failure | tail -3

echo "== config 2/10: Debug + ASan/UBSan (build-sanitize/)"
cmake -B build-sanitize -S . -G Ninja \
  -DCMAKE_BUILD_TYPE=Debug -DBATCHLIN_SANITIZE=ON >/dev/null
cmake --build build-sanitize -j "$JOBS"
ctest --test-dir build-sanitize -j "$JOBS" --output-on-failure | tail -3

echo "== config 3/10: Debug + TSan, serve + shard tests (build-tsan/)"
cmake -B build-tsan -S . -G Ninja \
  -DCMAKE_BUILD_TYPE=Debug -DBATCHLIN_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target test_serve test_shard
# OMP_NUM_THREADS=1: libgomp is not TSan-instrumented, so its barriers
# would report false positives. The serve-layer concurrency under test —
# client threads vs worker threads vs stats readers — is plain std::thread
# and stays fully exercised.
OMP_NUM_THREADS=1 ctest --test-dir build-tsan \
  -R '^(Serve|Assemble|Shard[A-Za-z]*)\.' \
  -j "$JOBS" --output-on-failure | tail -3
# Both launch modes share the lock-free ring + futex doorbell +
# waiter-bit reply slots the conc:: model checker (config 9) explores; the
# modes differ only in whether a worker's solver call gets its recording
# cache. Re-run the serve and shard suites with every default-config
# service forced onto the graph_replay mode, so TSan also watches the
# per-worker recording caches and the record/rebind/replay handoff under
# concurrent clients.
OMP_NUM_THREADS=1 BATCHLIN_LAUNCH_MODE=graph_replay ctest \
  --test-dir build-tsan -R '^(Serve|Assemble|Shard[A-Za-z]*)\.' \
  -j "$JOBS" --output-on-failure | tail -3

echo "== config 4/10: xpu::check kernel portability sanitizer (build-check/)"
cmake -B build-check -S . -G Ninja \
  -DCMAKE_BUILD_TYPE=Debug -DBATCHLIN_XPU_CHECK=ON >/dev/null
cmake --build build-check -j "$JOBS"
# The full suite runs instrumented (default check_level::none), then the
# fixture + adversary suites exercise every diagnostic class and prove the
# shipped kernels lane-order independent.
ctest --test-dir build-check -j "$JOBS" --output-on-failure | tail -3

echo "== config 5/10: resilience fault soak under the checked build"
# Reuses build-check: the fault-injection fixtures, breakdown taxonomy
# regressions, fallback-chain recovery, and the >= 1000-solve randomized
# soak all run against the instrumented execution model.
ctest --test-dir build-check \
  -R '^(FaultPlan|FaultFixtures|BreakdownTaxonomy|ZeroRhs|Resilient|SingularSweep|FaultSoak|ServeResilience)\.' \
  -j "$JOBS" --output-on-failure | tail -3

echo "== config 6/10: serve + resilience under graph_replay launch mode"
# Same Release build, launch mode forced by environment override: the
# serve-vs-solo bit-identity tests and the fault-recovery suites must not
# notice that every fused solve now goes through a recorded command graph
# from the worker's graph cache, submitted at replay cost.
BATCHLIN_LAUNCH_MODE=graph_replay ctest --test-dir build \
  -R '^(Serve|Assemble|ServeResilience|Resilient|FaultPlan)\.' \
  -j "$JOBS" --output-on-failure | tail -3

echo "== config 7/10: serve + mixed precision under fp32 default storage"
# Same Release build, default storage precision flipped by environment
# override: serve normalizes eligible requests onto fp32 storage, the
# coalescing keys keep storage policies apart, and iterative refinement
# still restores FP64 accuracy on the Table 4 chemistry batches. The
# resilience chain and the graph-record path share the storage-aware
# gather with coalescing, so they re-run here too: the chain's sub-batch
# gather and the record/rebind copies must honour fp32-storage batches.
BATCHLIN_STORAGE=fp32 ctest --test-dir build \
  -R '^(Serve|Assemble|MixedPrecision|Refine|Resilient|Record)\.' \
  -j "$JOBS" --output-on-failure | tail -3

echo "== config 8/10: serve + resilience across two device shards"
# Same Release build, shard count forced by environment override onto
# every default-config service: routing, stealing, and the per-shard
# breakers must be invisible to the serve bit-identity and fault-recovery
# suites on the graph-cache submit path (graph_replay); the eager path
# runs sharded in the tests that pin their own shard layout. (Those tests
# ignore the override by design and still run.)
BATCHLIN_SHARDS=2 BATCHLIN_LAUNCH_MODE=graph_replay ctest --test-dir build \
  -R '^(Serve|Assemble|Shard[A-Za-z]*|ServeResilience|Resilient|FaultPlan)\.' \
  -j "$JOBS" --output-on-failure | tail -3

echo "== config 9/10: conc:: concurrency model checker (build-conc/)"
cmake -B build-conc -S . -G Ninja \
  -DCMAKE_BUILD_TYPE=Release -DBATCHLIN_CONC_CHECK=ON >/dev/null
cmake --build build-conc -j "$JOBS" --target test_conc test_serve test_shard
# The model-check suite: exhaustive exploration + fixed-seed random walks
# of the production ring/reply-slot/doorbell/gate/lane protocols, and the
# mutant suite proving the detector's teeth. The serve/shard suites then
# re-run in the same build: off-engine, the shims must be invisible.
ctest --test-dir build-conc -R '^Conc' \
  -j "$JOBS" --output-on-failure | tail -3
OMP_NUM_THREADS=1 ctest --test-dir build-conc \
  -R '^(Serve|Assemble|Shard[A-Za-z]*)\.' \
  -j "$JOBS" --output-on-failure | tail -3

echo "== config 10/10: failover + chaos soak at two shards"
# The robustness layer end to end: the sticky device-loss and hang fault
# kinds, eviction/migration/half-open probing, the hang watchdog,
# priority shedding, the brownout ladder, and the seeded chaos soak
# (death + revival + hang + poison + open-loop overload, >= 1000 solves)
# — first in the Release build, then under the instrumented checked
# build so the fault injector and the failover paths themselves run with
# the execution-model sanitizer watching. Every fault plan is fixed, so
# both runs are bounded and reproducible.
ctest --test-dir build \
  -R '^(FaultPlan|LaneGuard|Failover|Shedding|ChaosSoak)\.' \
  -j "$JOBS" --output-on-failure | tail -3
ctest --test-dir build-check \
  -R '^(FaultPlan|LaneGuard|Failover|Shedding|ChaosSoak)\.' \
  -j "$JOBS" --output-on-failure | tail -3

echo "== all ten configs clean"
