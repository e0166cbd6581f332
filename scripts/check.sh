#!/usr/bin/env bash
# Builds and tests the seven verification configs, then checks the
# benchmark's contract:
#  1. the default Release build (tier-1: what CI and users run), whose
#     Oracle.* suite serves generated requests down every execution path
#     (launch mode x shards x workers x window x transient faults, plus
#     the resilient chain on native and fp32 storage) and
#     checks each against its solo solve,
#  2. a Debug + ASan/UBSan build (BATCHLIN_SANITIZE=ON), which also keeps
#     assertions alive so the debug-only workspace-binder name checks run,
#  3. a Debug + ThreadSanitizer build (BATCHLIN_SANITIZE=thread) running
#     the serve::, shard and oracle tests, which exercise the service's
#     submit/worker/reply handoffs from many host threads at once; the
#     oracle names both launch modes explicitly, so the per-worker
#     recording caches run under TSan too, and the ServeResilience suite
#     drives `solve_coalesced`'s retry and degrade loop on worker threads;
#     the four serve-path tests of test_mixed_precision add fp32-storage
#     and refined batches, whose worker threads gather and scatter through
#     the value store (mat::batch_values),
#  4. a BATCHLIN_XPU_CHECK build running the kernel portability sanitizer:
#     the fixture kernels must each trigger their diagnostic, and every
#     shipped solver kernel must pass the full checker (shadow state,
#     phase-hazard scan, shuffled lane-order adversary) clean, and
#  5. the resilience soak under the checked build: the randomized fault
#     schedules (launch failures, SLM alloc failures, NaN/bitflip
#     poisoning) run against the instrumented kernels, proving the fault
#     injector itself is race- and UB-free and that recovery paths hold
#     up with the sanitizer watching, and
#  6. a BATCHLIN_CONC_CHECK build running the conc:: concurrency model
#     checker over the lock-free serve/shard protocols: the ring,
#     reply-slot, doorbell, gate, breaker and lane-guard invariants are
#     explored exhaustively at 2-3 threads plus >= 10k seeded random
#     schedules at higher thread counts (the seed set is fixed inside the
#     tests, so the run is reproducible), and the seeded mutant suite
#     proves the detector catches each weakened memory order and dropped
#     wake. The serve/shard/oracle suites also re-run in this build,
#     proving the instrumented shims are transparent when no engine is
#     driving, and
#  7. the failover and chaos-soak suites (device-loss fault model, lane
#     eviction + queue migration, hang watchdog, half-open probes,
#     priority shedding, deadlines) at two shards: a bounded-runtime
#     seeded soak mixing shard death/revival, a kernel hang, NaN poison,
#     and open-loop overload, asserting zero lost tickets, balanced
#     books (every ticket resolved once, empty queues) after drain, and
#     bit-identity of successful solves against solo references — in the
#     Release build and again under the instrumented checked build, and
#  8. perfbench/test_perfbench.py, which builds the benchmark from this
#     tree and checks its output contract (metric names and units,
#     seed-stable counter metrics, its refusals): a library change that
#     breaks the benchmark's build or metrics fails here.
# The sanitizer passes are what prove the pooled launch resources, the
# reused spill backing, the serving layer's lock-free handoffs, and the
# solver kernels' SPMD discipline race- and UB-free.
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail

JOBS=${1:-$(nproc)}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"

echo "== config 1/8: Release (build/)"
cmake -B build -S . -G Ninja >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build -j "$JOBS" --output-on-failure | tail -3

echo "== config 2/8: Debug + ASan/UBSan (build-sanitize/)"
cmake -B build-sanitize -S . -G Ninja \
  -DCMAKE_BUILD_TYPE=Debug -DBATCHLIN_SANITIZE=ON >/dev/null
cmake --build build-sanitize -j "$JOBS"
ctest --test-dir build-sanitize -j "$JOBS" --output-on-failure | tail -3

echo "== config 3/8: Debug + TSan, serve + shard + oracle + resilience + fp32/refined serve tests (build-tsan/)"
cmake -B build-tsan -S . -G Ninja \
  -DCMAKE_BUILD_TYPE=Debug -DBATCHLIN_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target test_serve test_shard test_oracle \
  test_mixed_precision
# OMP_NUM_THREADS=1: libgomp is not TSan-instrumented, so its barriers
# would report false positives. The serve-layer concurrency under test —
# client threads vs worker threads vs stats readers — is plain std::thread
# and stays fully exercised.
OMP_NUM_THREADS=1 ctest --test-dir build-tsan \
  -R '^(Serve|ServeResilience|Assemble|Shard[A-Za-z]*|Oracle)\.|^MixedPrecision\.(ServeRepliesBitIdenticalToSoloUnderFp32Storage|CoalescingNeverMixesStoragePolicies)$|^Refine\.(ServeRoutesRefinedRequestsAndCountsSweeps|InjectedLaunchFaultOnRefinedBatchIsRetried)$' \
  -j "$JOBS" --output-on-failure | tail -3

echo "== config 4/8: xpu::check kernel portability sanitizer (build-check/)"
cmake -B build-check -S . -G Ninja \
  -DCMAKE_BUILD_TYPE=Debug -DBATCHLIN_XPU_CHECK=ON >/dev/null
cmake --build build-check -j "$JOBS"
# The full suite runs instrumented (default check_level::none), then the
# fixture + adversary suites exercise every diagnostic class and prove the
# shipped kernels lane-order independent.
ctest --test-dir build-check -j "$JOBS" --output-on-failure | tail -3

echo "== config 5/8: resilience fault soak under the checked build"
# Reuses build-check: the fault-injection fixtures, breakdown taxonomy
# regressions, fallback-chain recovery, and the >= 1000-solve randomized
# soak all run against the instrumented execution model.
ctest --test-dir build-check \
  -R '^(FaultPlan|FaultFixtures|BreakdownTaxonomy|ZeroRhs|Resilient|SingularSweep|FaultSoak|ServeResilience)\.' \
  -j "$JOBS" --output-on-failure | tail -3

echo "== config 6/8: conc:: concurrency model checker (build-conc/)"
cmake -B build-conc -S . -G Ninja \
  -DCMAKE_BUILD_TYPE=Release -DBATCHLIN_CONC_CHECK=ON >/dev/null
cmake --build build-conc -j "$JOBS" --target test_conc test_serve test_shard \
  test_oracle
# The model-check suite: exhaustive exploration + fixed-seed random walks
# of the production ring/reply-slot/doorbell/gate/lane protocols, and the
# mutant suite proving the detector's teeth. The serve/shard/oracle suites
# then re-run in the same build: off-engine, the shims must be invisible.
ctest --test-dir build-conc -R '^Conc' \
  -j "$JOBS" --output-on-failure | tail -3
OMP_NUM_THREADS=1 ctest --test-dir build-conc \
  -R '^(Serve|ServeResilience|Assemble|Shard[A-Za-z]*|Oracle)\.' \
  -j "$JOBS" --output-on-failure | tail -3

echo "== config 7/8: failover + chaos soak at two shards"
# The robustness layer end to end: the sticky device-loss and hang fault
# kinds, eviction/migration/half-open probing, the hang watchdog,
# priority shedding, deadline expiry, and the seeded chaos soak
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

echo "== config 8/8: benchmark contract (perfbench/test_perfbench.py)"
python3 perfbench/test_perfbench.py

echo "== all eight configs clean"
