// Graph-recorded coalesced solves: record once, rebind + replay per batch.
//
// An eager `solve_coalesced` pays per batch for (a) the eager kernel
// submission (`emulated_launch_us`), (b) re-planning the workspace and
// re-binding the plan, and (c) re-constructing the preconditioner
// dispatch. For a serve:: worker the stream of batches is highly
// repetitive — same pattern, same options, frequently even the same total
// batch size (the coalescing hash already groups requests exactly this
// way) — so a `recording_cache` hoists all three out of the loop. Given
// one, `solve_coalesced` runs each batch as:
//
//   record   — on a miss: gathers the parts into owned, address-stable
//              operands, resolves plan + launch config once, and records
//              the bound solver kernel — through the same dispatch ladder
//              an eager solve launches through (ladder.hpp) — into a
//              finalized `xpu::graph_exec` (charging `emulated_record_us`
//              once) whose closure captures raw pointers into the owned
//              storage; the preconditioner is constructed once, here.
//   rebind   — on a hit: swaps in the batch's data by value copy (matrix
//              values, right-hand sides, initial guesses). No
//              re-recording: the sparsity pattern is shared, and every
//              preconditioner reads the matrix VALUES in-kernel via
//              `generate()` (host construction is pattern-only), so a
//              value swap is bit-exact.
//   replay   — submits the finalized graph at `emulated_replay_us`
//              instead of the full eager launch cost.
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
/// the submission happened, like a failed eager launch.
struct recording_counts {
    std::uint64_t recorded = 0;
    std::uint64_t rebound = 0;
    std::uint64_t replayed = 0;
};

/// One worker's recordings, reached through `solve_coalesced`: a batch
/// whose shape (coalescing key, then an exact check of options, total
/// item count, storage mode and sparsity pattern, so a hash collision
/// re-records instead of corrupting) matches a slot is rebound and
/// replayed; a miss records into a free slot, an invalidated one, or the
/// least recently used one. Owned by one thread — no locking.
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
