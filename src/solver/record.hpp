// Graph-recorded coalesced solves: record once, rebind + replay per batch.
//
// `solve_coalesced` pays per batch for (a) the eager kernel submission
// (`emulated_launch_us`), (b) re-planning the workspace and re-binding the
// plan, and (c) re-constructing the preconditioner dispatch. For a serve::
// worker the stream of batches is highly repetitive — same pattern, same
// options, frequently even the same total batch size (the coalescing hash
// already groups requests exactly this way) — so `recorded_solve` hoists
// all three out of the loop:
//
//   record()  — gathers the parts into owned, address-stable operands,
//               resolves plan + launch config once, and records the
//               bound solver kernel — through the same dispatch ladder an
//               eager solve launches through (ladder.hpp) — into a
//               finalized `xpu::graph_exec` whose closure captures raw
//               pointers into the owned storage; the preconditioner is
//               constructed once, at record time.
//   rebind()  — swaps in the next batch's data by value copy (matrix
//               values, right-hand sides, initial guesses). No
//               re-recording: the sparsity pattern is shared, and every
//               preconditioner reads the matrix VALUES in-kernel via
//               `generate()` (host construction is pattern-only), so a
//               value swap is bit-exact.
//   replay()  — submits the finalized graph at `emulated_replay_us`
//               (or zero in persistent mode) instead of the full eager
//               launch cost.
//   scatter() — copies the solutions back into the parts' x storage.
//
// Fault integration: replays advance the queue's launch counter through
// the normal launch path, so `fault_plan` events fire on replays exactly
// as on eager launches. After a faulted replay the caller must
// `invalidate()` (or drop) the recording and re-record — never replay a
// poisoned graph (tests/test_serve.cpp covers this).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "solver/assemble.hpp"
#include "solver/options.hpp"
#include "xpu/graph.hpp"
#include "xpu/queue.hpp"

namespace batchlin::solver {

template <typename T>
class recorded_solve {
public:
    /// Records the coalesced solve of `parts` under `opts` into a
    /// finalized graph on `q` (charging `emulated_record_us` once).
    /// The recording owns copies of every operand, so the parts may be
    /// destroyed afterwards. Rejects `trsv` and `record_history`; throws
    /// the same validation/unsupported errors as `solve_coalesced`.
    /// Nothing executes until the first `replay`.
    static std::unique_ptr<recorded_solve> record(
        xpu::queue& q, const std::vector<assembly_part<T>>& parts,
        const solve_options& opts);

    /// True when `parts` solved under `opts` may reuse this recording via
    /// rebind(): equal options, equal total batch size, the leader's
    /// pattern matches the recorded pattern, and the graph is still
    /// valid. (The parts must be mutually coalescible — the caller's
    /// batcher invariant; only the leader is checked here.)
    bool compatible(const std::vector<assembly_part<T>>& parts,
                    const solve_options& opts) const;

    /// Copies the parts' matrix values, right-hand sides, and initial
    /// guesses into the recording's owned operands. The parts must
    /// satisfy `compatible()`.
    void rebind(const std::vector<assembly_part<T>>& parts);

    /// Replays the finalized graph on `q` at `cost`; returns the host
    /// wall-clock seconds of the replay. Faults scheduled on the launch
    /// counter fire here; on a thrown device fault, invalidate() and
    /// re-record before retrying.
    double replay(xpu::queue& q,
                  xpu::submit_cost cost = xpu::submit_cost::replay);

    /// Scatters the combined solution back into the parts' x storage
    /// (same part order as record()/rebind()).
    void scatter(const std::vector<assembly_part<T>>& parts) const;

    /// Convergence records of the most recent replay (combined batch
    /// indexing; slice per part with `split_log`).
    const log::batch_log& log() const { return log_; }

    const slm_plan& plan() const { return plan_; }
    const kernel_config& config() const { return config_; }
    index_type total_items() const { return total_items_; }

    std::uint64_t replays() const { return exec_.replays(); }
    std::uint64_t rebinds() const { return rebinds_; }
    bool valid() const { return exec_.valid(); }
    void invalidate() { exec_.invalidate(); }

private:
    recorded_solve(detail::assembly<T> ops, const solve_options& opts,
                   slm_plan plan, kernel_config config);

    // Owned, address-stable operands the recorded closure points into.
    // The object lives behind a unique_ptr and these members never move
    // or reallocate after construction.
    detail::assembly<T> ops_;
    solve_options opts_;
    /// Storage mode of the *request* matrices at record time. ops_.a
    /// itself may be compressed beyond this (opts-driven), so
    /// compatibility compares incoming parts against the request-side
    /// mode.
    mat::storage_precision request_storage_ = mat::storage_precision::native;
    slm_plan plan_;
    bound_plan slots_;
    kernel_config config_;
    index_type total_items_ = 0;
    std::vector<T> spill_;
    log::batch_log log_;
    /// Type-erased owned preconditioner (points into ops_.a for the
    /// pattern-dependent ones; ops_.a is address-stable, see above).
    std::shared_ptr<void> precond_;
    xpu::graph_exec exec_;
    std::uint64_t rebinds_ = 0;
};

}  // namespace batchlin::solver
