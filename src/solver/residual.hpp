// Host-side true-residual computation.
//
// Computes b_i - A_i x_i per batch item directly on the host, independent
// of the device kernels — the ground truth the test suite and the examples
// validate solver output against (iterative solvers monitor an implicit
// residual; this is the explicit one), and the FP64 residual that the
// refinement and resilience drivers act on. Every row is accumulated in
// FP64 in the pattern's order, reading whichever value array the matrix
// holds (native or fp32).
#pragma once

#include <vector>

#include "solver/options.hpp"

namespace batchlin::solver {

/// ||b - A x||_2 per item; the norm is accumulated from the FP64 row
/// residuals, never from a T-rounded copy.
template <typename T>
std::vector<double> residual_norms(const batch_matrix<T>& a,
                                   const mat::batch_dense<T>& b,
                                   const mat::batch_dense<T>& x);

/// ||b - A x|| / ||b|| per item (0/0 counts as 0).
template <typename T>
std::vector<double> relative_residual_norms(const batch_matrix<T>& a,
                                            const mat::batch_dense<T>& b,
                                            const mat::batch_dense<T>& x);

/// r = b - A x per item: FP64 row residuals stored as T into `r`, which
/// must have the shape of `b`.
template <typename T>
void residual_vectors(const batch_matrix<T>& a, const mat::batch_dense<T>& b,
                      const mat::batch_dense<T>& x, mat::batch_dense<T>& r);

/// ||v_i||_2 per item, accumulated in FP64.
template <typename T>
std::vector<double> item_norms(const mat::batch_dense<T>& v);

}  // namespace batchlin::solver
