// Declarations of the fused batched solver kernels.
//
// Definitions live in the *_impl.hpp headers and are explicitly
// instantiated (per value type, matrix format, and preconditioner — the
// template axes of the multi-level dispatch, §3.3) in the per-solver
// translation units, keeping the dispatch layer itself cheap to compile.
#pragma once

#include "log/logger.hpp"
#include "matrix/batch_dense.hpp"
#include "solver/kernel_common.hpp"
#include "solver/launch.hpp"
#include "solver/workspace.hpp"
#include "stop/criterion.hpp"
#include "xpu/queue.hpp"

namespace batchlin::solver {

// Every kernel carries a fourth template axis S — the *storage* type of
// the matrix and preconditioner payloads (mat::storage_precision). It is
// not deducible from the argument list (the matrix batch owns both typed
// arrays), so callers pass it explicitly:
// run_cg_bound<T, MatBatch, Precond, float>(...). S defaults to T.
//
// Every launch, eager or recorded, reaches these kernels through the one
// dispatch ladder in ladder.hpp. They take already-bound resources
// (`bound_plan` + `spill_view`), and their kernel closures capture every
// operand by value (raw pointers into caller-owned storage, small structs
// copied), never by reference to stack locals — which makes the
// submission recordable into an `xpu::graph` and replayable long after
// the recording call returned. The caller owns the lifetime of a,
// precond, b, x, crit, slots, spill backing, and logger for as long as the
// launch may run or replay. The closures also copy a's SpMV slot count
// (blas::spmv_slots), which depends only on the pattern and the launch's
// sub-group size: a replay may swap a's values, never its pattern.

/// Preconditioned conjugate gradients (Algorithm 1 of the paper) for the
/// batch entries in `range`; one fused kernel launch.
template <typename T, typename MatBatch, typename Precond,
          typename S = T>
void run_cg_bound(xpu::queue& q, const MatBatch& a, const Precond& precond,
                  const mat::batch_dense<T>& b, mat::batch_dense<T>& x,
                  const stop::criterion& crit, const bound_plan& slots,
                  const kernel_config& config, spill_view<T> spill,
                  log::batch_log& logger, xpu::batch_range range);

/// Preconditioned BiCGSTAB — the solver used for the non-SPD PeleLM inputs.
template <typename T, typename MatBatch, typename Precond,
          typename S = T>
void run_bicgstab_bound(xpu::queue& q, const MatBatch& a,
                        const Precond& precond, const mat::batch_dense<T>& b,
                        mat::batch_dense<T>& x, const stop::criterion& crit,
                        const bound_plan& slots, const kernel_config& config,
                        spill_view<T> spill, log::batch_log& logger,
                        xpu::batch_range range);

/// Preconditioned Richardson iteration x += relaxation * M(b - A x)
/// (library extension; the baseline/smoother of the solver hierarchy).
template <typename T, typename MatBatch, typename Precond,
          typename S = T>
void run_richardson_bound(xpu::queue& q, const MatBatch& a,
                          const Precond& precond,
                          const mat::batch_dense<T>& b,
                          mat::batch_dense<T>& x, const stop::criterion& crit,
                          const bound_plan& slots,
                          const kernel_config& config, spill_view<T> spill,
                          T relaxation, log::batch_log& logger,
                          xpu::batch_range range);

/// Restarted GMRES(m) with left preconditioning; `restart` == m.
template <typename T, typename MatBatch, typename Precond,
          typename S = T>
void run_gmres_bound(xpu::queue& q, const MatBatch& a,
                     const Precond& precond, const mat::batch_dense<T>& b,
                     mat::batch_dense<T>& x, const stop::criterion& crit,
                     const bound_plan& slots, const kernel_config& config,
                     spill_view<T> spill, index_type restart,
                     log::batch_log& logger, xpu::batch_range range);

}  // namespace batchlin::solver
