// Host-level batched matrix operations.
//
// The batched SpMV (`apply`) is the standalone counterpart of the device
// kernels the solvers fuse (§3.2): one launch, one work-group per system.
// The two-sided diagonal scaling is the equilibration step the PeleLM
// workflow applies before solving (it improves the conditioning of the
// BDF Jacobians and the effectiveness of the scalar Jacobi preconditioner).
#pragma once

#include "matrix/batch_csr.hpp"
#include "matrix/batch_dense.hpp"
#include "solver/options.hpp"
#include "xpu/queue.hpp"

namespace batchlin::mat {

/// y_i = A_i x_i for every batch item, as one fused kernel launch.
template <typename T>
void apply(xpu::queue& q, const solver::batch_matrix<T>& a,
           const batch_dense<T>& x, batch_dense<T>& y);

/// y_i = alpha * A_i x_i + beta * y_i.
template <typename T>
void advanced_apply(xpu::queue& q, T alpha, const solver::batch_matrix<T>& a,
                    const batch_dense<T>& x, T beta, batch_dense<T>& y);

/// Batched transpose: one pass builds the transposed shared pattern and
/// the per-item permutation, then every item's values are scattered. The
/// result preserves the shared-pattern invariant.
template <typename T>
batch_csr<T> transpose(const batch_csr<T>& a);

/// Per-system row/column scaling vectors for equilibration.
template <typename T>
struct batch_scaling {
    batch_dense<T> row;  ///< left diagonal, one column per system
    batch_dense<T> col;  ///< right diagonal
};

/// Computes the two-sided scaling that equilibrates each system's rows to
/// unit infinity-norm and then its columns (one Ruiz-style pass) —
/// in-place applicable to CSR batches.
template <typename T>
batch_scaling<T> compute_equilibration(const batch_csr<T>& a);

/// A_i <- diag(row_i) * A_i * diag(col_i); use with scale_rhs/unscale to
/// solve the equilibrated system.
template <typename T>
void scale_system(batch_csr<T>& a, const batch_scaling<T>& s);

/// b_i <- diag(row_i) * b_i (apply before solving the scaled system).
template <typename T>
void scale_rhs(batch_dense<T>& b, const batch_scaling<T>& s);

/// x_i <- diag(col_i) * x_i (recover the unscaled solution afterwards).
template <typename T>
void unscale_solution(batch_dense<T>& x, const batch_scaling<T>& s);

}  // namespace batchlin::mat
