// Fallback-chain recovery driver (resilience layer).
//
// A batched solve leaves some systems unhealthy for reasons the status
// taxonomy now distinguishes: Krylov breakdowns on hostile spectra,
// non-finite recurrences after workspace corruption, device faults from a
// failed launch, or a plain exhausted iteration budget. `solve_resilient`
// turns those per-system statuses into action: it re-solves exactly the
// unhealthy systems as a gathered sub-batch down a bounded policy chain
// (by default: the primary config, then BiCGSTAB, then GMRES with a larger
// restart, then batched dense LU), retries `xpu::device_error` launches
// through `solve_coalesced`'s recovery loop (`detail::with_retries`), and
// re-verifies every claimed convergence against the explicit residual —
// which is what catches a *finite* bit flip that the non-finite guards
// cannot see. Healthy batches pay one pass over the status array and one
// explicit-residual check. The chain works on fp32-storage batches too:
// the sub-batch gather copies whichever value array is live, and the
// direct stage widens its copy to native.
#pragma once

#include <vector>

#include "solver/dispatch.hpp"

namespace batchlin::solver {

/// One stage of the fallback chain.
struct fallback_stage {
    solve_options opts{};
    /// Bypass the iterative dispatch and run batched dense LU (the matrix
    /// is converted to CSR as needed). `opts` still supplies the criterion
    /// used for verification.
    bool direct = false;

    friend bool operator==(const fallback_stage&,
                           const fallback_stage&) = default;
};

/// Configuration of `solve_resilient`.
struct resilient_options {
    /// Stage 0 is the primary attempt over the whole batch; each later
    /// stage re-solves only the systems the previous stages left
    /// unhealthy. Must not be empty.
    std::vector<fallback_stage> chain;
    /// Additional attempts after a `xpu::device_error` launch failure,
    /// per stage, without backoff (`retry_policy::retries`).
    index_type launch_retries = 2;
};

/// Slack factor on the stop target of the explicit-residual check every
/// claimed convergence goes through (the implicit residual recurrence
/// drifts from the true residual). Violators are demoted to
/// `device_fault` and re-solved: the only detector for silent finite
/// corruption (bitflip poisoning), since the in-kernel guards only catch
/// NaN/Inf.
inline constexpr double verify_slack = 100.0;

/// The default bounded chain for a primary configuration: the primary
/// itself, BiCGSTAB with a doubled iteration budget, GMRES with a larger
/// restart, then batched dense LU as the terminal direct stage.
resilient_options default_chain(const solve_options& primary);

/// What one stage did to one system.
struct attempt_record {
    /// Index into `resilient_options::chain`.
    index_type stage = 0;
    log::solve_status status = log::solve_status::max_iterations;
    index_type iterations = 0;
    double residual_norm = 0.0;
};

/// Outcome of a resilient solve.
struct resilient_result {
    /// Final per-system record: the converging attempt, or the last
    /// attempt for systems the whole chain failed on.
    log::batch_log log;
    /// Per-system attempt history in stage order; entry i lists only the
    /// stages that actually ran system i.
    std::vector<std::vector<attempt_record>> history;
    /// Systems healthy after the primary attempt (verification included).
    index_type first_try = 0;
    /// Systems unhealthy after the primary attempt that a later stage (or
    /// a launch retry) brought to convergence.
    index_type recovered = 0;
    /// Systems still unhealthy after the whole chain.
    index_type failed = 0;
    /// `xpu::device_error` launches retried across all stages.
    index_type launch_retries_used = 0;
    /// Counters summed over every completed launch of every stage that
    /// ran, the direct stage's included.
    xpu::counters stats;
    double wall_seconds = 0.0;
};

/// Solves A_i x_i = b_i with fallback-chain recovery. `x` carries the
/// initial guess for the primary attempt; re-solve stages start from a
/// zero guess (the unhealthy iterate may be poisoned). On return `x`
/// holds, per system, the solution of its converging attempt — or the
/// primary attempt's final iterate when no stage converged.
template <typename T>
resilient_result solve_resilient(xpu::queue& q, const batch_matrix<T>& a,
                                 const mat::batch_dense<T>& b,
                                 mat::batch_dense<T>& x,
                                 const resilient_options& opts);

}  // namespace batchlin::solver
