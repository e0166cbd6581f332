// Tuned batched SpMV device kernels, one per matrix format (paper §3.2).
//
//  * BatchCsr uses the sub-group-to-row mapping: a sub-group cooperates on
//    one row and combines partials with sub-group (sub-warp) reductions —
//    good for general patterns with row-length variation.
//  * BatchEll maps one work-item to one row; the column-major padded layout
//    makes the accesses coalesced and no inter-thread reduction is needed.
//  * BatchDense maps one work-item to one row of the dense block.
//
// All kernels charge flops and per-space traffic: the shared pattern arrays
// (row pointers / column indexes) are read-only and shared between ALL
// work-groups, so they are charged as constant (L3-cacheable) traffic; the
// value arrays carry their own space tag (constant for the system matrix,
// SLM when applying SLM-resident preconditioner factors).
#pragma once

#include <utility>

#include "blas/device_blas.hpp"
#include "blas/matrix_view.hpp"
#include "xpu/group.hpp"

namespace batchlin::blas {

/// Indexed gathers (x[col_idxs[k]]) are charged at memory-transaction
/// granularity rather than element granularity: the lanes of a sub-group
/// hit scattered addresses, so each access moves a whole SLM bank line /
/// cache transaction. This is what Intel Advisor counts, and it is the
/// reason the batched solvers are SLM-traffic-dominated in the paper's
/// Fig. 8 (≈3 TB through SLM for dodecane_lu at 2^17).
inline constexpr double gather_transaction_bytes = 32.0;

namespace detail {

/// Charges `count` gathered element reads of `s` at transaction size.
template <typename T>
void charge_gather(xpu::group& g, const dspan<T>& s, double count)
{
    const double bytes = count * gather_transaction_bytes;
    switch (s.space) {
    case mem_space::slm:
        g.stats().slm_bytes += bytes;
        break;
    case mem_space::constant:
        g.stats().constant_read_bytes += bytes;
        break;
    case mem_space::global:
        g.stats().global_read_bytes += bytes;
        break;
    }
}

}  // namespace detail

namespace detail {

/// Row `row` of A x for one CSR batch item (sub-group-per-row mapping). S
/// is the storage type of the values (float under fp32 storage): each
/// value widens to T on read, so the arithmetic — and the result — stays
/// in compute precision while the streamed value bytes shrink.
template <typename T, typename S>
T row_times(const csr_view<T, S>& a, const dspan<const T>& x, index_type row)
{
    T sum{};
    for (index_type k = a.row_ptrs[row]; k < a.row_ptrs[row + 1]; ++k) {
        sum += a.values[k] * x[a.col_idxs[k]];
    }
    return sum;
}

/// Row `row` of A x for one ELL batch item (work-item-per-row mapping).
template <typename T, typename S>
T row_times(const ell_view<T, S>& a, const dspan<const T>& x, index_type row)
{
    T sum{};
    for (index_type k = 0; k < a.width; ++k) {
        const index_type col = a.col_idxs[k * a.rows + row];
        if (col != mat::ell_padding) {
            sum += a.values[k * a.rows + row] * x[col];
        }
    }
    return sum;
}

/// Row `row` of A x for one dense batch item (work-item-per-row mapping).
template <typename T, typename S>
T row_times(const dense_view<T, S>& a, const dspan<const T>& x,
            index_type row)
{
    T sum{};
    for (index_type col = 0; col < a.cols; ++col) {
        sum += a.values[row * a.cols + col] * x[col];
    }
    return sum;
}

/// Charges one y = A x of a CSR item. The traffic charge is
/// storage-honest automatically: charge_read sizes by the span's element
/// type.
template <typename T, typename S>
void charge_spmv(xpu::group& g, const csr_view<T, S>& a,
                 const dspan<const T>& x, const dspan<T>& y)
{
    // Lane-occupancy of the sub-group-per-row mapping: every row is
    // processed by a full sub-group, so rows shorter than the sub-group
    // leave lanes idle (the inefficiency that motivates BatchEll's
    // item-per-row mapping for few-nnz rows, §3.2). The idle lanes still
    // issue the FMA slots, which the flop charge reflects. Counted by the
    // launch (spmv_slots) rather than in the row loop: an integer division
    // there ties up the registers the fused epilogues' row loops need on
    // the host, and the count is the same for every SpMV of a launch.
    const double issued =
        a.spmv_slots >= 0.0
            ? a.spmv_slots
            : spmv_slots(a.rows, a.row_ptrs, g.sub_group_size());
    g.stats().flops += 2.0 * issued;
    // Pattern traffic: row pointers + column indexes, shared by all groups.
    g.stats().constant_read_bytes +=
        static_cast<double>(a.rows + 1 + a.nnz) * sizeof(index_type);
    charge_read(g, a.values, a.nnz);
    charge_gather(g, x, a.nnz);  // gathered x reads, one per nnz
    charge_write(g, y, a.rows);
    // Sub-group-per-row combines partials with shuffles: no SLM traffic,
    // but one extra reduction step per row.
    g.stats().flops += static_cast<double>(a.rows);
}

/// Charges one y = A x of an ELL item: padded slots multiply by zero
/// exactly as the hardware kernel does, so they issue FMAs and gathers.
template <typename T, typename S>
void charge_spmv(xpu::group& g, const ell_view<T, S>& a,
                 const dspan<const T>& x, const dspan<T>& y)
{
    const double stored = static_cast<double>(a.rows) * a.width;
    g.stats().flops += 2.0 * stored;
    g.stats().constant_read_bytes += stored * sizeof(index_type);
    charge_read(g, a.values, static_cast<index_type>(stored));
    charge_gather(g, x, stored);
    charge_write(g, y, a.rows);
}

/// Charges one y = A x of a dense item.
template <typename T, typename S>
void charge_spmv(xpu::group& g, const dense_view<T, S>& a,
                 const dspan<const T>& x, const dspan<T>& y)
{
    const double entries = static_cast<double>(a.rows) * a.cols;
    g.stats().flops += 2.0 * entries;
    charge_read(g, a.values, static_cast<index_type>(entries));
    charge_read(g, x, static_cast<index_type>(entries));
    charge_write(g, y, a.rows);
}

}  // namespace detail

/// y = A x for one batch item of any format (csr_view, ell_view,
/// dense_view); the row body and the charge are the format's own.
template <typename T, typename View>
void spmv(xpu::group& g, const View& a, dspan<const T> x, dspan<T> y)
{
    g.for_items(a.rows,
                [&](index_type row) { y[row] = detail::row_times(a, x, row); });
    detail::charge_spmv(g, a, x, y);
}

/// y = A x with the epilogue w . y from the same pass: the fused form of
/// spmv(a, x, y); dot(w, y), with dot's arithmetic and reduction order.
/// Each lane multiplies its own rows' results, so y is not read back.
/// BiCGSTAB's v = A p_hat with r_hat . v.
template <typename T, typename View>
T spmv_dot(xpu::group& g, const View& a, dspan<const T> x, dspan<T> y,
           dspan<const T> w, xpu::reduce_path path)
{
    detail::charge_spmv(g, a, x, y);
    detail::charge_read(g, w, a.rows);
    g.stats().flops += static_cast<double>(a.rows);  // multiplies
    return g.reduce_sum<T>(
        a.rows,
        [&](index_type row) {
            const T y_row = detail::row_times(a, x, row);
            y[row] = y_row;
            return w[row] * y_row;
        },
        path);
}

/// y = A x with the epilogues y . y and y . w from the same pass, in one
/// two-value reduction: the fused form of spmv(a, x, y); dot(y, y);
/// dot(y, w). BiCGSTAB's t = A s_hat with t . t and t . s.
template <typename T, typename View>
std::pair<T, T> spmv_dot2(xpu::group& g, const View& a, dspan<const T> x,
                          dspan<T> y, dspan<const T> w,
                          xpu::reduce_path path)
{
    detail::charge_spmv(g, a, x, y);
    detail::charge_read(g, w, a.rows);
    g.stats().flops += 2.0 * a.rows;  // multiplies
    return g.reduce_sum2<T>(
        a.rows,
        [&](index_type row) {
            const T y_row = detail::row_times(a, x, row);
            y[row] = y_row;
            return std::pair<T, T>{y_row * y_row, y_row * w[row]};
        },
        path);
}

/// y = alpha * A x + beta * y, fused form used by the residual updates.
template <typename View, typename T>
void advanced_spmv(xpu::group& g, T alpha, const View& a, dspan<const T> x,
                   T beta, dspan<T> y, dspan<T> scratch)
{
    spmv(g, a, x, scratch);
    // Implicit view-of-const conversion (not a re-aggregation) so the
    // sanitizer tag of an instrumented scratch span stays attached.
    axpby<T>(g, alpha, scratch, beta, y);
}

}  // namespace batchlin::blas
