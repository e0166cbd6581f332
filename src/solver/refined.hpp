// Mixed-precision iterative refinement driver.
//
// The bandwidth-bound solve path spends most of its bytes streaming matrix
// values and preconditioner payloads; fp32 storage halves that traffic but
// floors the attainable true residual near fp32 epsilon. `solve_refined`
// recovers full working-precision accuracy on top of the compressed solve:
//
//   1. inner solve   A32 x = b   to a loose tolerance on fp32 storage,
//   2. explicit FP64 residual    r = b - A x   against the native matrix,
//   3. correction    A32 d = r,  x += d,  repeat until the FP64 target
//      holds (classic iterative refinement with a compressed inner
//      operator),
//   4. demote a system that stalls or runs out of sweeps to the
//      native-storage resilience chain (`solve_resilient`) so accuracy
//      never regresses below a plain native solve.
//
// Each system sweeps, stalls and falls back on its own, so a system's
// result does not depend on the batch it was solved in.
//
// The driver therefore needs the NATIVE matrix (for the residuals); the
// compressed operator is either converted once per call or supplied
// pre-compressed by hot paths (serve, benchmarks) that reuse it across
// many solves.
#pragma once

#include <vector>

#include "solver/dispatch.hpp"

namespace batchlin::solver {

/// Tuning knobs of the refinement loop.
struct refine_options {
    /// Correction sweeps allowed after the initial inner solve.
    index_type max_sweeps = 4;
};

/// Outcome of a refined solve.
struct refined_result {
    /// Per-system record: iterations summed over all inner solves, the
    /// final TRUE (FP64, explicit) residual norm, and a status judged
    /// against the outer criterion on that true residual — except that a
    /// system the fallback chain failed on keeps the chain's terminal
    /// status (`singular`, a breakdown, ...).
    log::batch_log log;
    /// Counters summed over every inner launch (and the fallback, if it
    /// ran) — this is where the fp32 traffic reduction shows up.
    xpu::counters stats;
    /// Correction sweeps performed, by the system that took the most (0 =
    /// the first inner solve already met the outer target everywhere, or
    /// refinement was not applicable).
    index_type sweeps = 0;
    /// Whether the stall fallback re-solved on native storage.
    bool fell_back = false;
    /// Final FP64 relative residuals per system (absolute when b is 0).
    std::vector<double> true_residuals;
    double wall_seconds = 0.0;
};

/// Refined solve of A x = b. `a` must carry NATIVE storage — the FP64
/// residuals read it directly. When the effective storage of `opts` is
/// native (or T is float), this is a plain `solve` plus a true-residual
/// report. The compressed operator is converted from `a` once per call;
/// hot paths should use the pre-compressed overload.
template <typename T>
refined_result solve_refined(xpu::queue& q, const batch_matrix<T>& a,
                             const mat::batch_dense<T>& b,
                             mat::batch_dense<T>& x,
                             const solve_options& opts,
                             const refine_options& ropts = {});

/// Pre-compressed overload: `compressed` must be the fp32-storage copy of
/// `a` (same pattern, same values narrowed). Skips the per-call
/// conversion — benchmark and serving hot paths convert once and reuse.
template <typename T>
refined_result solve_refined(xpu::queue& q, const batch_matrix<T>& a,
                             const batch_matrix<T>& compressed,
                             const mat::batch_dense<T>& b,
                             mat::batch_dense<T>& x,
                             const solve_options& opts,
                             const refine_options& ropts = {});

}  // namespace batchlin::solver
