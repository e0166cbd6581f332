// Graph-recorded coalesced solves: one recording per coalescing key.
//
// An eager `solve_coalesced` pays per batch for (a) the eager kernel
// submission (`emulated_launch_us`), (b) re-planning the workspace and
// re-binding the plan, and (c) re-constructing the preconditioner
// dispatch. A serve:: worker's batches repeat the same pattern and options
// (the coalescing hash groups requests exactly this way) at varying fused
// sizes, so a `recording_cache` hoists all three out of the loop. Given
// one, `solve_coalesced` runs each batch as:
//
//   record   — on a miss: gathers the parts into owned, address-stable
//              operands for `std::bit_ceil` of the batch's systems,
//              resolves plan + launch config once, and records the bound
//              solver kernel over that capacity — through the ladder an
//              eager solve launches through (ladder.hpp) — into a final
//              `xpu::graph_exec` (charging `emulated_record_us` once); the
//              preconditioner is constructed once, here.
//   rebind   — on a hit (a batch no larger than the capacity): swaps in
//              the batch's matrix values, right-hand sides and initial
//              guesses by value copy. The pattern is shared, and every
//              preconditioner reads the matrix VALUES in-kernel via
//              `generate()`, so a value swap is bit-exact.
//   replay   — runs the graph over the batch's systems only, at
//              `emulated_replay_us`. Each system is its own work-group
//              under a launch config fixed by pattern and options, so
//              solutions, log and counters equal the eager fused solve.
//   scatter  — copies the solutions back into the parts' x storage.
//
// Fault integration: replays advance the queue's launch counter through
// the normal launch path, so `fault_plan` events fire on replays exactly
// as on eager launches. A faulted replay invalidates its recording, so the
// caller's retry re-records — a poisoned graph is never replayed
// (tests/test_serve.cpp covers this).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "solver/assemble.hpp"
#include "solver/options.hpp"
#include "xpu/queue.hpp"

namespace batchlin::solver {

/// One recorded coalesced solve (record.cpp).
template <typename T>
class recorded_solve;

/// What a `recording_cache` did over its life. A faulted replay counts:
/// the submission happened, like a failed eager launch. Every replay
/// follows a recording or a rebind: rebinds are `replayed - recorded`.
struct recording_counts {
    std::uint64_t recorded = 0;
    std::uint64_t replayed = 0;
};

/// One worker's recordings, one slot per coalescing key, reached through
/// `solve_coalesced`: a batch whose key's slot fits it (an exact check of
/// options, storage mode and pattern, so a hash collision re-records
/// instead of corrupting, and at most the recorded capacity) is rebound
/// and replayed; otherwise it records into its key's slot, a free one, or
/// the least recently used one. Owned by one thread — no locking.
template <typename T>
class recording_cache {
public:
    /// Keeps at most `capacity` (> 0) recordings.
    explicit recording_cache(std::size_t capacity);
    ~recording_cache();

    const recording_counts& totals() const { return totals_; }

private:
    template <typename U>
    friend coalesced_result solve_coalesced(
        xpu::queue&, const std::vector<assembly_part<U>>&,
        const solve_options&, recording_cache<U>*, const retry_policy&);

    struct slot {
        std::uint64_t key = 0;
        std::uint64_t last_use = 0;
        std::unique_ptr<recorded_solve<T>> rec;
    };

    solve_result solve(xpu::queue& q,
                       const std::vector<assembly_part<T>>& parts,
                       const solve_options& opts);

    std::size_t capacity_;
    std::vector<slot> slots_;
    /// LRU clock.
    std::uint64_t tick_ = 0;
    recording_counts totals_;
};

}  // namespace batchlin::solver
