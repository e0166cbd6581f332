// Device-side views of one batch item of each matrix format.
//
// Solver kernels are templated on the view type (the Format axis of the
// multi-level dispatch, §3.3), so the SpMV specialization is resolved at
// compile time and the fused kernel contains no format branches (§3.4).
//
// The second template parameter S is the *storage* type of the values
// span (mat::storage_precision). It defaults to the compute type T; under
// fp32 storage S = float and the SpMV kernels widen each value on read —
// halving the streamed value bytes while all arithmetic stays in T.
#pragma once

#include "matrix/batch_csr.hpp"
#include "matrix/batch_dense.hpp"
#include "matrix/batch_ell.hpp"
#include "xpu/span.hpp"

namespace batchlin::blas {

/// One CSR batch item: shared pattern + this item's values. The values span
/// carries its memory-space tag, so the same view type serves both the
/// system matrix (constant, L3-cacheable) and SLM-resident ILU factors.
template <typename T, typename S = T>
struct csr_view {
    index_type rows = 0;
    index_type cols = 0;
    index_type nnz = 0;
    const index_type* row_ptrs = nullptr;
    const index_type* col_idxs = nullptr;
    xpu::dspan<const S> values;
    /// FMA slots one SpMV of this item issues (spmv_slots), counted once by
    /// the launch; negative when the view's maker did not count them, and
    /// then every SpMV counts them itself.
    double spmv_slots = -1.0;
};

/// FMA slots one y = A x of a CSR item issues under the sub-group-per-row
/// mapping: every row is processed by a full sub-group, so each row's
/// length rounds up to the sub-group size. Only the shared pattern and the
/// sub-group size enter, so one count serves every group and SpMV of a
/// launch.
inline double spmv_slots(index_type rows, const index_type* row_ptrs,
                         index_type sub_group_size)
{
    double issued = 0.0;
    for (index_type row = 0; row < rows; ++row) {
        issued += round_up(row_ptrs[row + 1] - row_ptrs[row], sub_group_size);
    }
    return issued;
}

template <typename T>
double spmv_slots(const mat::batch_csr<T>& m, index_type sub_group_size)
{
    return spmv_slots(m.rows(), m.row_ptrs().data(), sub_group_size);
}

/// ELL and dense SpMVs issue one slot per stored entry, which their views
/// give directly: nothing to count per launch.
template <typename M>
double spmv_slots(const M&, index_type)
{
    return -1.0;
}

/// One ELL batch item (column-major padded storage).
template <typename T, typename S = T>
struct ell_view {
    index_type rows = 0;
    index_type cols = 0;
    index_type width = 0;
    const index_type* col_idxs = nullptr;
    xpu::dspan<const S> values;
};

/// One dense batch item (row-major).
template <typename T, typename S = T>
struct dense_view {
    index_type rows = 0;
    index_type cols = 0;
    xpu::dspan<const S> values;
};

/// Storage-typed views: the values span is the matrix's S-typed array
/// (S = T under native storage, S = float under fp32 storage). A launch
/// passes its `spmv_slots(m, sub_group_size)`; only CSR views keep it.
template <typename S, typename T>
csr_view<T, S> item_view_as(const mat::batch_csr<T>& m, index_type batch,
                            double slots = -1.0)
{
    return {m.rows(), m.cols(), m.nnz(), m.row_ptrs().data(),
            m.col_idxs().data(), m.template item_span_as<S>(batch), slots};
}

template <typename S, typename T>
ell_view<T, S> item_view_as(const mat::batch_ell<T>& m, index_type batch,
                            double /*slots*/ = -1.0)
{
    return {m.rows(), m.cols(), m.ell_width(), m.col_idxs().data(),
            m.template item_span_as<S>(batch)};
}

template <typename S, typename T>
dense_view<T, S> item_view_as(const mat::batch_dense<T>& m,
                              index_type batch, double /*slots*/ = -1.0)
{
    return {m.rows(), m.cols(), m.template item_span_as<S>(batch)};
}

/// The native-storage view of one item.
template <typename M>
auto item_view(const M& m, index_type batch)
{
    return item_view_as<typename M::value_type>(m, batch);
}

}  // namespace batchlin::blas
