// Batched DIRECT solver baselines (paper §1 and related work [9, 20]).
//
// The paper's core argument for batched *iterative* solvers is made
// against these: direct methods always pay the full factorization, cannot
// exploit an initial guess, and a batched sparse direct solve needs two
// kernels with an allocation in between (the fill-in is unknown a priori),
// while the iterative solve fuses into one kernel with SLM locality.
//
//  * batch_thomas — the cuThomasBatch-style tridiagonal solver: one lane
//    per system runs the Thomas algorithm (no fine-grained parallelism,
//    exactly the limitation the paper notes for [20]).
//  * batch_dense_lu — general direct baseline: kernel 1 spreads the sparse
//    system into a dense workspace and factorizes (PLU), kernel 2
//    substitutes. Two launches and a rows^2 global workspace per system,
//    reproducing the two-kernel + allocation structure of batched sparse
//    direct solvers.
#pragma once

#include "log/logger.hpp"
#include "matrix/batch_csr.hpp"
#include "matrix/batch_dense.hpp"
#include "solver/launch.hpp"
#include "xpu/queue.hpp"

namespace batchlin::solver {

/// Thomas algorithm for strictly tridiagonal batches (pattern bandwidth 1,
/// full diagonal); throws otherwise. Exact up to rounding; records one
/// "iteration" per system.
template <typename T>
void run_thomas(xpu::queue& q, const mat::batch_csr<T>& a,
                const mat::batch_dense<T>& b, mat::batch_dense<T>& x,
                log::batch_log& logger, xpu::batch_range range);

/// Dense LU with partial pivoting per system, from CSR input. Uses a
/// rows^2 global workspace per system allocated between the two kernels.
/// Returns per-system success in the logger (converged == non-singular)
/// and the counters of both launches.
template <typename T>
xpu::counters run_dense_lu(xpu::queue& q, const mat::batch_csr<T>& a,
                  const mat::batch_dense<T>& b, mat::batch_dense<T>& x,
                  log::batch_log& logger, xpu::batch_range range);

/// Banded Gaussian elimination without pivoting for patterns with
/// bandwidth <= `max_bandwidth` (covers the penta-diagonal systems of
/// [9]); intended for the diagonally dominant problem space, where the
/// elimination is stable without pivoting. One lane per system, SLM-
/// resident band workspace, single launch. Throws when the pattern's
/// bandwidth exceeds the limit.
template <typename T>
void run_banded(xpu::queue& q, const mat::batch_csr<T>& a,
                const mat::batch_dense<T>& b, mat::batch_dense<T>& x,
                log::batch_log& logger, xpu::batch_range range,
                index_type max_bandwidth = 2);

}  // namespace batchlin::solver
