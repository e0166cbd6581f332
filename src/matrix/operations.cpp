#include "matrix/operations.hpp"

#include <cmath>
#include <variant>

#include "blas/matrix_view.hpp"
#include "blas/spmv.hpp"
#include "solver/launch.hpp"
#include "util/error.hpp"

namespace batchlin::mat {

namespace {

template <typename T>
void check_apply_dims(const solver::batch_matrix<T>& a,
                      const batch_dense<T>& x, const batch_dense<T>& y)
{
    const index_type items = solver::items_of(a);
    BATCHLIN_ENSURE_DIMS(x.num_batch_items() == items &&
                             y.num_batch_items() == items,
                         "batch sizes must match");
    const index_type cols =
        std::visit([](const auto& m) { return m.cols(); }, a);
    BATCHLIN_ENSURE_DIMS(x.rows() == cols && y.rows() == solver::rows_of(a),
                         "vector lengths must match the matrix shape");
    BATCHLIN_ENSURE_DIMS(x.cols() == 1 && y.cols() == 1,
                         "apply expects single-column multivectors");
}

}  // namespace

template <typename T>
void apply(xpu::queue& q, const solver::batch_matrix<T>& a,
           const batch_dense<T>& x, batch_dense<T>& y)
{
    check_apply_dims(a, x, y);
    const solver::kernel_config config =
        solver::choose_launch_config(q.policy(), solver::rows_of(a));
    const batch_dense<T>* x_in = &x;
    batch_dense<T>* y_out = &y;
    std::visit(
        [&](const auto& m) {
            q.run_batch(m.num_batch_items(), config.work_group_size,
                        config.sub_group_size, [&](xpu::group& g) {
                            blas::spmv<T>(
                                g, blas::item_view(m, g.id()),
                                x_in->item_span(g.id(),
                                                xpu::mem_space::global),
                                y_out->item_span(g.id()));
                        },
                        0, "batch_spmv");
        },
        a);
}

template <typename T>
void advanced_apply(xpu::queue& q, T alpha, const solver::batch_matrix<T>& a,
                    const batch_dense<T>& x, T beta, batch_dense<T>& y)
{
    check_apply_dims(a, x, y);
    const index_type rows = solver::rows_of(a);
    const solver::kernel_config config =
        solver::choose_launch_config(q.policy(), rows);
    const batch_dense<T>* x_in = &x;
    batch_dense<T>* y_out = &y;
    std::visit(
        [&](const auto& m) {
            q.run_batch(m.num_batch_items(), config.work_group_size,
                        config.sub_group_size, [&](xpu::group& g) {
                            xpu::dspan<T> scratch =
                                g.slm().alloc<T>(rows);
                            blas::advanced_spmv(
                                g, alpha, blas::item_view(m, g.id()),
                                x_in->item_span(g.id(),
                                                xpu::mem_space::global),
                                beta, y_out->item_span(g.id()), scratch);
                        },
                        0, "batch_advanced_spmv");
        },
        a);
}

template <typename T>
batch_csr<T> transpose(const batch_csr<T>& a)
{
    const index_type rows = a.rows();
    const index_type cols = a.cols();
    const index_type nnz = a.nnz();
    // Counting sort of the shared pattern by column; `permutation[k]` is
    // the position of source entry k in the transposed values array.
    std::vector<index_type> t_row_ptrs(cols + 1, 0);
    for (index_type k = 0; k < nnz; ++k) {
        ++t_row_ptrs[a.col_idxs()[k] + 1];
    }
    for (index_type c = 0; c < cols; ++c) {
        t_row_ptrs[c + 1] += t_row_ptrs[c];
    }
    std::vector<index_type> t_col_idxs(nnz);
    std::vector<index_type> permutation(nnz);
    std::vector<index_type> cursor(t_row_ptrs.begin(),
                                   t_row_ptrs.end() - 1);
    for (index_type i = 0; i < rows; ++i) {
        for (index_type k = a.row_ptrs()[i]; k < a.row_ptrs()[i + 1];
             ++k) {
            const index_type pos = cursor[a.col_idxs()[k]]++;
            t_col_idxs[pos] = i;
            permutation[k] = pos;
        }
    }
    batch_csr<T> t(a.num_batch_items(), cols, rows, std::move(t_row_ptrs),
                   std::move(t_col_idxs));
    for (index_type item = 0; item < a.num_batch_items(); ++item) {
        const T* src = a.item_values(item);
        T* dst = t.item_values(item);
        for (index_type k = 0; k < nnz; ++k) {
            dst[permutation[k]] = src[k];
        }
    }
    return t;
}

template <typename T>
batch_scaling<T> compute_equilibration(const batch_csr<T>& a)
{
    BATCHLIN_ENSURE_MSG(a.rows() == a.cols(),
                        "equilibration expects square systems");
    const index_type items = a.num_batch_items();
    const index_type n = a.rows();
    batch_scaling<T> s{batch_dense<T>(items, n, 1),
                       batch_dense<T>(items, n, 1)};
    for (index_type item = 0; item < items; ++item) {
        const T* vals = a.item_values(item);
        // Row pass: scale each row to unit infinity norm.
        for (index_type i = 0; i < n; ++i) {
            T row_max{};
            for (index_type k = a.row_ptrs()[i]; k < a.row_ptrs()[i + 1];
                 ++k) {
                row_max = std::max(row_max, std::abs(vals[k]));
            }
            s.row.at(item, i, 0) =
                row_max > T{0} ? T{1} / row_max : T{1};
        }
        // Column pass on the row-scaled values.
        std::vector<T> col_max(n, T{0});
        for (index_type i = 0; i < n; ++i) {
            for (index_type k = a.row_ptrs()[i]; k < a.row_ptrs()[i + 1];
                 ++k) {
                const T scaled = std::abs(vals[k]) * s.row.at(item, i, 0);
                col_max[a.col_idxs()[k]] =
                    std::max(col_max[a.col_idxs()[k]], scaled);
            }
        }
        for (index_type j = 0; j < n; ++j) {
            s.col.at(item, j, 0) =
                col_max[j] > T{0} ? T{1} / col_max[j] : T{1};
        }
    }
    return s;
}

template <typename T>
void scale_system(batch_csr<T>& a, const batch_scaling<T>& s)
{
    BATCHLIN_ENSURE_DIMS(s.row.num_batch_items() == a.num_batch_items() &&
                             s.row.rows() == a.rows(),
                         "scaling does not match the batch");
    for (index_type item = 0; item < a.num_batch_items(); ++item) {
        T* vals = a.item_values(item);
        for (index_type i = 0; i < a.rows(); ++i) {
            for (index_type k = a.row_ptrs()[i]; k < a.row_ptrs()[i + 1];
                 ++k) {
                vals[k] *= s.row.at(item, i, 0) *
                           s.col.at(item, a.col_idxs()[k], 0);
            }
        }
    }
}

template <typename T>
void scale_rhs(batch_dense<T>& b, const batch_scaling<T>& s)
{
    for (index_type item = 0; item < b.num_batch_items(); ++item) {
        for (index_type i = 0; i < b.rows(); ++i) {
            b.at(item, i, 0) *= s.row.at(item, i, 0);
        }
    }
}

template <typename T>
void unscale_solution(batch_dense<T>& x, const batch_scaling<T>& s)
{
    for (index_type item = 0; item < x.num_batch_items(); ++item) {
        for (index_type i = 0; i < x.rows(); ++i) {
            x.at(item, i, 0) *= s.col.at(item, i, 0);
        }
    }
}

#define BATCHLIN_INSTANTIATE_OPERATIONS(T)                                 \
    template void apply<T>(xpu::queue&, const solver::batch_matrix<T>&,    \
                           const batch_dense<T>&, batch_dense<T>&);        \
    template void advanced_apply<T>(xpu::queue&, T,                        \
                                    const solver::batch_matrix<T>&,        \
                                    const batch_dense<T>&, T,              \
                                    batch_dense<T>&);                      \
    template batch_csr<T> transpose<T>(const batch_csr<T>&);               \
    template batch_scaling<T> compute_equilibration<T>(                    \
        const batch_csr<T>&);                                              \
    template void scale_system<T>(batch_csr<T>&,                           \
                                  const batch_scaling<T>&);                \
    template void scale_rhs<T>(batch_dense<T>&, const batch_scaling<T>&);  \
    template void unscale_solution<T>(batch_dense<T>&,                     \
                                      const batch_scaling<T>&)

BATCHLIN_INSTANTIATE_OPERATIONS(float);
BATCHLIN_INSTANTIATE_OPERATIONS(double);

}  // namespace batchlin::mat
