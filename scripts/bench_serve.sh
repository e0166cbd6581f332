#!/usr/bin/env bash
# Runs the serve-throughput benchmark and writes BENCH_serve_throughput.json
# at the repo root: closed-loop clients sweeping offered load against four
# service configs — batch1 (no coalescing), coalesced (dynamic batching,
# direct launches), graph_replay (coalesced + recorded command graphs at
# PVC-1S's 1 us replay cost), and graph_replay_0us (the same mode with no
# batching window and zero replay cost: a device whose solver kernel stays
# resident). Each cell records its emulated_replay_us. Headline numbers:
# speedup_coalesced_vs_batch1, speedup_graph_replay_vs_coalesced and
# speedup_graph_replay_0us_vs_coalesced at the highest load. A shard-count
# sweep (1/2/4 explicit PVC-1S shards, graph_replay mode charging the
# shards' modeled launch and replay costs) follows, reporting wall and
# modeled-aggregate solves/sec, the 1->2 scaling factor, p99, and the
# bit-identity probe across shard counts.
#
# Last comes the overload sweep: an open-loop generator calibrates the
# sustainable accepted rate with a doubling ladder, then offers 0.5x and
# 2x of it as priority-0 traffic against a service with the shed
# watermark and a 3 ms deadline enabled. The JSON records the
# "overload" cells plus the headline
# overload_accepted_p99_ratio_2x_vs_unsat — the robustness acceptance
# bar is that accepted-request p99 at 2x saturation stays within 1.5x of
# the unsaturated p99 (shedding keeps latency flat while excess load is
# refused).
#
# Usage: scripts/bench_serve.sh [build-dir]
set -euo pipefail

BUILD_DIR=${1:-build}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"

cmake -B "$BUILD_DIR" -S . -G Ninja >/dev/null
cmake --build "$BUILD_DIR" --target bench_serve_throughput

"$BUILD_DIR/bench/bench_serve_throughput" \
  --min-time "${BENCH_MIN_TIME:-2}" \
  --json BENCH_serve_throughput.json
