// The one kernel-dispatch ladder under every solver driver (paper §3.3,
// Fig. 3).
//
// Eager `solve_range` and the graph recording of record.cpp both funnel
// format × preconditioner × solver × storage through these two
// functions into one `run_X_bound` kernel instance; they differ only in
// who owns the bound plan, the spill backing and the preconditioner, and
// in whether the queue executes or records the launch.
#pragma once

#include <memory>

#include "solver/kernel_common.hpp"
#include "solver/options.hpp"

namespace batchlin::solver::detail {

/// What one fused launch resolves from the batch shape and the options.
struct launch_setup {
    /// The kernels read fp32 matrix/preconditioner payloads (S = float):
    /// the options ask for fp32 storage, or the matrix already holds it.
    bool compressed = false;
    slm_plan plan;
    kernel_config config;
};

/// Resolves storage, workspace plan and launch configuration (§3.5-3.6).
template <typename T>
launch_setup resolve_launch(const xpu::exec_policy& policy,
                            const batch_matrix<T>& a,
                            const solve_options& opts);

/// Levels 1-3 of the dispatch: the format (and storage width) of `a`, the
/// preconditioner, then the solver pick one `run_X_bound` instance, which
/// `q` runs or records. `a` must already hold the storage the launch reads
/// (fp32 iff `setup.compressed`). The preconditioner is constructed from
/// `a` here; the returned handle owns it, and whoever keeps the launch
/// (a recorded graph) must keep the handle too. Throws
/// `unsupported_combination` for the combinations Table 3 excludes.
template <typename T>
std::shared_ptr<void> launch_bound(xpu::queue& q, const batch_matrix<T>& a,
                                   const mat::batch_dense<T>& b,
                                   mat::batch_dense<T>& x,
                                   const solve_options& opts,
                                   const bound_plan& slots,
                                   const kernel_config& config,
                                   spill_view<T> spill,
                                   log::batch_log& logger,
                                   xpu::batch_range range);

}  // namespace batchlin::solver::detail
