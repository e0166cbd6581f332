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
};

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
/// (S = T under native storage, S = float under fp32 storage).
template <typename S, typename T>
csr_view<T, S> item_view_as(const mat::batch_csr<T>& m, index_type batch)
{
    return {m.rows(), m.cols(), m.nnz(), m.row_ptrs().data(),
            m.col_idxs().data(), m.template item_span_as<S>(batch)};
}

template <typename S, typename T>
ell_view<T, S> item_view_as(const mat::batch_ell<T>& m, index_type batch)
{
    return {m.rows(), m.cols(), m.ell_width(), m.col_idxs().data(),
            m.template item_span_as<S>(batch)};
}

template <typename S, typename T>
dense_view<T, S> item_view_as(const mat::batch_dense<T>& m,
                              index_type batch)
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
