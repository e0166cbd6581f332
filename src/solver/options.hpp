// Public solve options and result types of the batched solver interface.
#pragma once

#include <optional>
#include <string>
#include <variant>

#include "log/logger.hpp"
#include "matrix/batch_csr.hpp"
#include "matrix/batch_dense.hpp"
#include "matrix/batch_ell.hpp"
#include "matrix/storage.hpp"
#include "precond/types.hpp"
#include "solver/launch.hpp"
#include "solver/trsv.hpp"
#include "solver/workspace.hpp"
#include "stop/criterion.hpp"
#include "xpu/counters.hpp"

namespace batchlin::solver {

/// Runtime choice of matrix format: a batch is exactly one of the three
/// formats of Table 3; the dispatch layer funnels the variant into the
/// format-templated kernels (§3.3).
template <typename T>
using batch_matrix = std::variant<mat::batch_dense<T>, mat::batch_csr<T>,
                                  mat::batch_ell<T>>;

enum class matrix_format { dense, csr, ell };

template <typename T>
matrix_format format_of(const batch_matrix<T>& a)
{
    if (std::holds_alternative<mat::batch_csr<T>>(a)) {
        return matrix_format::csr;
    }
    if (std::holds_alternative<mat::batch_ell<T>>(a)) {
        return matrix_format::ell;
    }
    return matrix_format::dense;
}

std::string to_string(matrix_format f);

/// The value store under whichever format `a` holds.
template <typename T>
const mat::batch_values<T>& values_of(const batch_matrix<T>& a)
{
    return std::visit(
        [](const auto& m) -> const mat::batch_values<T>& { return m; }, a);
}
template <typename T>
mat::batch_values<T>& values_of(batch_matrix<T>& a)
{
    return std::visit([](auto& m) -> mat::batch_values<T>& { return m; },
                      a);
}

template <typename T>
index_type items_of(const batch_matrix<T>& a)
{
    return values_of(a).num_batch_items();
}

template <typename T>
index_type rows_of(const batch_matrix<T>& a)
{
    return std::visit([](const auto& m) { return m.rows(); }, a);
}

template <typename T>
mat::storage_precision storage_of(const batch_matrix<T>& a)
{
    return values_of(a).storage_mode();
}

/// Converts the value array of `a` to `mode` in place (a no-op when it
/// already is stored that way).
template <typename T>
void set_storage(batch_matrix<T>& a, mat::storage_precision mode)
{
    values_of(a).set_storage_precision(mode);
}

/// All runtime knobs of one batched solve. Every combination of the first
/// four fields corresponds to a cell of Table 3; the remaining fields are
/// the performance-tuning switches of §3.5–3.6 (auto by default).
struct solve_options {
    solver_type solver = solver_type::bicgstab;
    precond::type preconditioner = precond::type::none;
    stop::criterion criterion{};
    /// Krylov basis length for BatchGmres.
    index_type gmres_restart = 10;
    /// Block size for the block-Jacobi preconditioner.
    index_type block_jacobi_size = 4;
    /// Relaxation factor for BatchRichardson.
    double richardson_relaxation = 0.9;
    /// SLM placement strategy (ablations may disable SLM).
    slm_mode slm = slm_mode::priority;
    /// Forced sub-group size; 0 selects by matrix size (§3.6).
    index_type sub_group_size = 0;
    /// Forced reduction strategy; unset selects by matrix size (§3.6).
    std::optional<xpu::reduce_path> reduction{};
    /// Triangle selection for BatchTrsv.
    triangle trsv_triangle = triangle::automatic;
    /// Record the per-iteration residual history of every system (costs
    /// num_systems x max_iterations doubles; off by default).
    bool record_history = false;
    /// Retired, no longer read: the spill backing is never zero-filled
    /// (every kernel writes each spilled element before reading it).
    bool zero_spill = true;
    /// Storage precision of the matrix and preconditioner payloads. fp32
    /// halves the streamed value/factor bytes on the bandwidth-bound solve
    /// path; compute precision is unaffected (arithmetic widens on read),
    /// but the attainable true residual floors near fp32 epsilon — use
    /// solve_refined (or refine_sweeps in serve) to recover full accuracy.
    mat::storage_precision storage = mat::storage_precision::native;
    /// Maximum iterative-refinement sweeps of a `solve_coalesced` call
    /// (solver::solve_refined); 0 solves directly with no refinement.
    /// Part of the options on purpose: the coalescing hash and equality
    /// must separate refined from unrefined traffic.
    index_type refine_sweeps = 0;

    /// Exact member-wise comparison; the serve:: dynamic batcher only
    /// coalesces requests whose options compare equal.
    friend bool operator==(const solve_options&,
                           const solve_options&) = default;
};

/// What the iterative-refinement driver did for one refined solve.
struct refine_outcome {
    /// Correction sweeps after the initial inner solve.
    index_type sweeps = 0;
    /// Whether the stall fallback re-solved on native storage.
    bool fell_back = false;
};

/// Outcome of one batched solve: per-system convergence data, the counters
/// of the fused kernel launch, and the resolved execution configuration.
struct solve_result {
    log::batch_log log;
    /// Counters of every launch the solve made (a refined solve sums its
    /// inner launches).
    xpu::counters stats;
    slm_plan plan;
    kernel_config config;
    /// Host wall-clock of the simulated launch (not a device time estimate;
    /// see perfmodel for device projections).
    double wall_seconds = 0.0;
    /// Set when `solve_coalesced` ran the refinement driver.
    std::optional<refine_outcome> refined;
};

}  // namespace batchlin::solver
