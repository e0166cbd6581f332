#include "solver/residual.hpp"

#include <cmath>

#include "util/error.hpp"
#include "xpu/queue.hpp"

namespace batchlin::solver {

namespace {

// The per-format row kernel: hands `sink(row, r)` each row residual
// r = b_i - (A x)_i of one item, with (A x)_i accumulated in FP64 in the
// pattern's order before b_i is subtracted: folding b_i into the running
// sum would let a huge iterate absorb it (a diverged null-space component
// cancels exactly in A x, and r would read 0 instead of b_i).
template <typename T, typename Sink>
void item_residuals(const mat::batch_csr<T>& a, index_type item,
                    const mat::batch_dense<T>& b,
                    const mat::batch_dense<T>& x, Sink&& sink)
{
    a.visit_item(item, [&](const auto* vals) {
        for (index_type i = 0; i < a.rows(); ++i) {
            double ax = 0.0;
            for (index_type k = a.row_ptrs()[i]; k < a.row_ptrs()[i + 1];
                 ++k) {
                ax += static_cast<double>(vals[k]) *
                      static_cast<double>(x.at(item, a.col_idxs()[k], 0));
            }
            sink(i, static_cast<double>(b.at(item, i, 0)) - ax);
        }
    });
}

template <typename T, typename Sink>
void item_residuals(const mat::batch_ell<T>& a, index_type item,
                    const mat::batch_dense<T>& b,
                    const mat::batch_dense<T>& x, Sink&& sink)
{
    for (index_type i = 0; i < a.rows(); ++i) {
        double ax = 0.0;
        for (index_type k = 0; k < a.ell_width(); ++k) {
            const index_type col = a.col_at(i, k);
            if (col != mat::ell_padding) {
                ax += static_cast<double>(a.val_at(item, i, k)) *
                      static_cast<double>(x.at(item, col, 0));
            }
        }
        sink(i, static_cast<double>(b.at(item, i, 0)) - ax);
    }
}

template <typename T, typename Sink>
void item_residuals(const mat::batch_dense<T>& a, index_type item,
                    const mat::batch_dense<T>& b,
                    const mat::batch_dense<T>& x, Sink&& sink)
{
    for (index_type i = 0; i < a.rows(); ++i) {
        double ax = 0.0;
        for (index_type j = 0; j < a.cols(); ++j) {
            ax += static_cast<double>(a.at(item, i, j)) *
                  static_cast<double>(x.at(item, j, 0));
        }
        sink(i, static_cast<double>(b.at(item, i, 0)) - ax);
    }
}

/// Runs the row kernel over every item (items in parallel, on a team sized
/// like a launch's); `sink(item, row, r)` must only touch state owned by
/// `item`.
template <typename T, typename Sink>
void for_each_residual(const batch_matrix<T>& a,
                       const mat::batch_dense<T>& b,
                       const mat::batch_dense<T>& x, Sink&& sink)
{
    const index_type items = items_of(a);
    BATCHLIN_ENSURE_DIMS(b.num_batch_items() == items &&
                             x.num_batch_items() == items,
                         "batch sizes must match");
    const int team = xpu::launch_team(items);
    std::visit(
        [&](const auto& m) {
#pragma omp parallel for num_threads(team) schedule(static)
            for (index_type item = 0; item < items; ++item) {
                item_residuals(m, item, b, x, [&](index_type i, double r) {
                    sink(item, i, r);
                });
            }
        },
        a);
}

}  // namespace

template <typename T>
std::vector<double> residual_norms(const batch_matrix<T>& a,
                                   const mat::batch_dense<T>& b,
                                   const mat::batch_dense<T>& x)
{
    std::vector<double> out(static_cast<std::size_t>(items_of(a)), 0.0);
    for_each_residual(a, b, x, [&](index_type item, index_type, double r) {
        out[static_cast<std::size_t>(item)] += r * r;
    });
    for (double& sq : out) {
        sq = std::sqrt(sq);
    }
    return out;
}

template <typename T>
void residual_vectors(const batch_matrix<T>& a, const mat::batch_dense<T>& b,
                      const mat::batch_dense<T>& x, mat::batch_dense<T>& r)
{
    for_each_residual(a, b, x, [&](index_type item, index_type i, double v) {
        r.at(item, i, 0) = static_cast<T>(v);
    });
}

template <typename T>
std::vector<double> item_norms(const mat::batch_dense<T>& v)
{
    std::vector<double> norms(static_cast<std::size_t>(v.num_batch_items()));
    for (index_type i = 0; i < v.num_batch_items(); ++i) {
        double sum = 0.0;
        const T* vals = v.item_values(i);
        for (size_type k = 0; k < v.item_size(); ++k) {
            const double e = static_cast<double>(vals[k]);
            sum += e * e;
        }
        norms[static_cast<std::size_t>(i)] = std::sqrt(sum);
    }
    return norms;
}

template <typename T>
std::vector<double> relative_residual_norms(const batch_matrix<T>& a,
                                            const mat::batch_dense<T>& b,
                                            const mat::batch_dense<T>& x)
{
    std::vector<double> res = residual_norms(a, b, x);
    const std::vector<double> bnorm = item_norms(b);
    for (std::size_t item = 0; item < res.size(); ++item) {
        if (bnorm[item] > 0.0) {
            res[item] /= bnorm[item];
        }
    }
    return res;
}

#define BATCHLIN_INSTANTIATE_RESIDUAL(T)                                   \
    template std::vector<double> residual_norms<T>(                        \
        const batch_matrix<T>&, const mat::batch_dense<T>&,                \
        const mat::batch_dense<T>&);                                       \
    template std::vector<double> relative_residual_norms<T>(               \
        const batch_matrix<T>&, const mat::batch_dense<T>&,                \
        const mat::batch_dense<T>&);                                       \
    template void residual_vectors<T>(                                     \
        const batch_matrix<T>&, const mat::batch_dense<T>&,                \
        const mat::batch_dense<T>&, mat::batch_dense<T>&);                 \
    template std::vector<double> item_norms<T>(const mat::batch_dense<T>&)

BATCHLIN_INSTANTIATE_RESIDUAL(float);
BATCHLIN_INSTANTIATE_RESIDUAL(double);

}  // namespace batchlin::solver
