#include "solver/direct.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "blas/device_blas.hpp"
#include "matrix/properties.hpp"
#include "solver/kernel_common.hpp"
#include "util/dense_lu.hpp"
#include "util/error.hpp"

namespace batchlin::solver {

template <typename T>
void run_thomas(xpu::queue& q, const mat::batch_csr<T>& a,
                const mat::batch_dense<T>& b, mat::batch_dense<T>& x,
                log::batch_log& logger, xpu::batch_range range)
{
    const mat::pattern_stats stats = mat::analyze_pattern(a);
    BATCHLIN_ENSURE_MSG(stats.bandwidth <= 1 && stats.full_diagonal,
                        "batch_thomas requires a tridiagonal pattern with "
                        "a full diagonal");
    const index_type rows = a.rows();
    const mat::batch_dense<T>* b_in = &b;
    mat::batch_dense<T>* x_out = &x;

    // One launch; each system is solved by one lane of its work-group
    // (the Thomas recurrence has no fine-grained parallelism, which is
    // exactly the paper's criticism of this method class).
    q.run_batch(
        range.size(), 16, 16,
        [&, rows](xpu::group& g) {
            const index_type batch = g.id();
            const T* vals = a.item_values(batch);
            const auto& rp = a.row_ptrs();
            const auto& ci = a.col_idxs();
            auto entry = [&](index_type row, index_type col) -> T {
                for (index_type k = rp[row]; k < rp[row + 1]; ++k) {
                    if (ci[k] == col) {
                        return vals[k];
                    }
                }
                return T{0};
            };
            // Forward elimination into SLM scratch.
            xpu::dspan<T> c_prime = g.slm().alloc<T>(rows);
            xpu::dspan<T> d_prime = g.slm().alloc<T>(rows);
            bool ok = true;
            {
                const T beta = entry(0, 0);
                ok = beta != T{0};
                c_prime[0] = ok ? entry(0, 1) / beta : T{0};
                d_prime[0] = ok ? b_in->at(batch, 0, 0) / beta : T{0};
            }
            for (index_type i = 1; i < rows && ok; ++i) {
                const T lower = entry(i, i - 1);
                const T diag = entry(i, i);
                const T upper = i + 1 < rows ? entry(i, i + 1) : T{0};
                const T denom = diag - lower * c_prime[i - 1];
                ok = std::abs(denom) > std::numeric_limits<T>::min();
                if (!ok) {
                    break;
                }
                c_prime[i] = upper / denom;
                d_prime[i] =
                    (b_in->at(batch, i, 0) - lower * d_prime[i - 1]) / denom;
            }
            g.barrier();
            if (ok) {
                x_out->at(batch, rows - 1, 0) = d_prime[rows - 1];
                for (index_type i = rows - 2; i >= 0; --i) {
                    x_out->at(batch, i, 0) =
                        d_prime[i] -
                        c_prime[i] * x_out->at(batch, i + 1, 0);
                }
            }
            g.barrier();
            // 8 flops per row forward, 2 backward; traffic: matrix +
            // rhs constant, scratch in SLM, x written to global.
            g.stats().flops += 10.0 * rows;
            g.stats().constant_read_bytes +=
                static_cast<double>(a.nnz() + rows) * sizeof(T);
            g.stats().slm_bytes += 4.0 * rows * sizeof(T);
            g.stats().global_write_bytes +=
                static_cast<double>(rows) * sizeof(T);
            record_outcome(g, logger, batch, 1, T{0},
                           ok ? log::solve_status::converged
                              : log::solve_status::singular);
        },
        range.begin, "batch_thomas");
}

template <typename T>
xpu::counters run_dense_lu(xpu::queue& q, const mat::batch_csr<T>& a,
                           const mat::batch_dense<T>& b,
                           mat::batch_dense<T>& x, log::batch_log& logger,
                           xpu::batch_range range)
{
    BATCHLIN_ENSURE_MSG(a.rows() == a.cols(),
                        "direct LU requires square systems");
    const index_type rows = a.rows();
    const size_type dense_elems = static_cast<size_type>(rows) * rows;
    // The between-kernels allocation of the batched direct method (§1):
    // a dense workspace plus pivots per system, in global memory.
    std::vector<T> workspace(static_cast<std::size_t>(dense_elems) *
                             range.size());
    std::vector<index_type> pivots(static_cast<std::size_t>(rows) *
                                   range.size());
    std::vector<std::uint8_t> singular(range.size(), 0);
    const mat::batch_dense<T>* b_in = &b;
    mat::batch_dense<T>* x_out = &x;

    // Kernel 1: scatter CSR into the dense workspace and factorize.
    q.run_batch(
        range.size(), 16, 16,
        [&, rows, dense_elems](xpu::group& g) {
            const index_type batch = g.id();
            const index_type local = batch - range.begin;
            T* dense = workspace.data() +
                       static_cast<size_type>(local) * dense_elems;
            index_type* piv =
                pivots.data() + static_cast<size_type>(local) * rows;
            g.for_items(static_cast<index_type>(dense_elems),
                        [&](index_type e) { dense[e] = T{0}; });
            const T* vals = a.item_values(batch);
            g.for_items(rows, [&](index_type i) {
                for (index_type k = a.row_ptrs()[i];
                     k < a.row_ptrs()[i + 1]; ++k) {
                    dense[static_cast<size_type>(i) * rows +
                          a.col_idxs()[k]] = vals[k];
                }
            });
            singular[local] = lu_factorize(rows, dense, piv) ? 0 : 1;
            g.barrier();
            const double n = rows;
            g.stats().flops += 2.0 / 3.0 * n * n * n;
            g.stats().constant_read_bytes +=
                static_cast<double>(a.nnz()) * sizeof(T);
            // The factorization sweeps the dense workspace ~n/3 times.
            g.stats().global_read_bytes += n * n * (n / 3.0) * sizeof(T);
            g.stats().global_write_bytes += n * n * (n / 3.0) * sizeof(T);
        },
        range.begin, "batch_dense_lu_factorize");
    xpu::counters stats = q.last_launch_stats();

    // Kernel 2: forward/backward substitution from the stored factors.
    q.run_batch(
        range.size(), 16, 16,
        [&, rows, dense_elems](xpu::group& g) {
            const index_type batch = g.id();
            const index_type local = batch - range.begin;
            const T* dense = workspace.data() +
                             static_cast<size_type>(local) * dense_elems;
            const index_type* piv =
                pivots.data() + static_cast<size_type>(local) * rows;
            const bool ok = singular[local] == 0;
            if (ok) {
                xpu::dspan<T> sol = g.slm().alloc<T>(rows);
                g.for_items(rows, [&](index_type i) {
                    sol[i] = b_in->at(batch, i, 0);
                });
                lu_solve(rows, dense, piv, sol.data);
                g.for_items(rows, [&](index_type i) {
                    x_out->at(batch, i, 0) = sol[i];
                });
            }
            const double n = rows;
            g.stats().flops += 2.0 * n * n;
            g.stats().global_read_bytes += n * n * sizeof(T);
            g.stats().constant_read_bytes +=
                static_cast<double>(rows) * sizeof(T);
            g.stats().slm_bytes += 4.0 * n * sizeof(T);
            g.stats().global_write_bytes +=
                static_cast<double>(rows) * sizeof(T);
            record_outcome(g, logger, batch, 1, T{0},
                           ok ? log::solve_status::converged
                              : log::solve_status::singular);
        },
        range.begin, "batch_dense_lu_solve");
    stats += q.last_launch_stats();
    return stats;
}

template <typename T>
void run_banded(xpu::queue& q, const mat::batch_csr<T>& a,
                const mat::batch_dense<T>& b, mat::batch_dense<T>& x,
                log::batch_log& logger, xpu::batch_range range,
                index_type max_bandwidth)
{
    const mat::pattern_stats stats = mat::analyze_pattern(a);
    BATCHLIN_ENSURE_MSG(stats.bandwidth <= max_bandwidth,
                        "pattern bandwidth exceeds the banded solver's "
                        "limit");
    BATCHLIN_ENSURE_MSG(stats.full_diagonal,
                        "banded elimination requires a full diagonal");
    const index_type rows = a.rows();
    const index_type bw = max_bandwidth;
    const index_type band_cols = 2 * bw + 1;
    const mat::batch_dense<T>* b_in = &b;
    mat::batch_dense<T>* x_out = &x;

    q.run_batch(
        range.size(), 16, 16,
        [&, rows, bw, band_cols](xpu::group& g) {
            const index_type batch = g.id();
            // Band storage in SLM: row i holds columns i-bw .. i+bw.
            xpu::dspan<T> band = g.slm().alloc<T>(rows * band_cols);
            xpu::dspan<T> rhs = g.slm().alloc<T>(rows);
            g.for_items(rows * band_cols,
                        [&](index_type e) { band[e] = T{0}; });
            const T* vals = a.item_values(batch);
            g.for_items(rows, [&](index_type i) {
                for (index_type k = a.row_ptrs()[i];
                     k < a.row_ptrs()[i + 1]; ++k) {
                    const index_type off = a.col_idxs()[k] - i + bw;
                    band[i * band_cols + off] = vals[k];
                }
                rhs[i] = b_in->at(batch, i, 0);
            });
            // Forward elimination within the band (no pivoting: the
            // problem space is diagonally dominant).
            bool ok = true;
            double flops = 0.0;
            for (index_type k = 0; k < rows && ok; ++k) {
                const T pivot = band[k * band_cols + bw];
                ok = std::abs(pivot) > std::numeric_limits<T>::min();
                if (!ok) {
                    break;
                }
                const index_type i_end = std::min(k + bw, rows - 1);
                for (index_type i = k + 1; i <= i_end; ++i) {
                    const index_type off_ik = k - i + bw;
                    const T factor = band[i * band_cols + off_ik] / pivot;
                    if (factor == T{0}) {
                        continue;
                    }
                    const index_type j_end = std::min(k + bw, rows - 1);
                    for (index_type j = k; j <= j_end; ++j) {
                        band[i * band_cols + (j - i + bw)] -=
                            factor * band[k * band_cols + (j - k + bw)];
                    }
                    rhs[i] -= factor * rhs[k];
                    flops += 2.0 * (j_end - k + 2);
                }
            }
            g.barrier();
            // Back substitution.
            if (ok) {
                for (index_type i = rows - 1; i >= 0; --i) {
                    T sum = rhs[i];
                    const index_type j_end = std::min(i + bw, rows - 1);
                    for (index_type j = i + 1; j <= j_end; ++j) {
                        sum -= band[i * band_cols + (j - i + bw)] *
                               x_out->at(batch, j, 0);
                    }
                    x_out->at(batch, i, 0) =
                        sum / band[i * band_cols + bw];
                    flops += 2.0 * (j_end - i) + 1.0;
                }
            }
            g.barrier();
            g.stats().flops += flops;
            g.stats().constant_read_bytes +=
                static_cast<double>(a.nnz() + rows) * sizeof(T);
            g.stats().slm_bytes +=
                3.0 * rows * band_cols * sizeof(T);  // fill + eliminate
            g.stats().global_write_bytes +=
                static_cast<double>(rows) * sizeof(T);
            record_outcome(g, logger, batch, 1, T{0},
                           ok ? log::solve_status::converged
                              : log::solve_status::singular);
        },
        range.begin, "batch_banded");
}

#define BATCHLIN_INSTANTIATE_DIRECT(T)                                     \
    template void run_thomas<T>(xpu::queue&, const mat::batch_csr<T>&,     \
                                const mat::batch_dense<T>&,                \
                                mat::batch_dense<T>&, log::batch_log&,     \
                                xpu::batch_range);                         \
    template xpu::counters run_dense_lu<T>(                               \
        xpu::queue&, const mat::batch_csr<T>&, const mat::batch_dense<T>&, \
        mat::batch_dense<T>&, log::batch_log&, xpu::batch_range);          \
    template void run_banded<T>(xpu::queue&, const mat::batch_csr<T>&,     \
                                const mat::batch_dense<T>&,                \
                                mat::batch_dense<T>&, log::batch_log&,     \
                                xpu::batch_range, index_type)

BATCHLIN_INSTANTIATE_DIRECT(float);
BATCHLIN_INSTANTIATE_DIRECT(double);

}  // namespace batchlin::solver
