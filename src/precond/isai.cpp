#include "precond/isai.hpp"

#include <vector>

#include "util/dense_lu.hpp"
#include "util/error.hpp"

namespace batchlin::precond {

namespace {

index_type find_in_row(const index_type* row_ptrs,
                       const index_type* col_idxs, index_type row,
                       index_type col)
{
    index_type lo = row_ptrs[row];
    index_type hi = row_ptrs[row + 1] - 1;
    while (lo <= hi) {
        const index_type mid = lo + (hi - lo) / 2;
        if (col_idxs[mid] == col) {
            return mid;
        }
        if (col_idxs[mid] < col) {
            lo = mid + 1;
        } else {
            hi = mid - 1;
        }
    }
    return -1;
}

}  // namespace

template <typename T, typename S>
isai<T, S>::isai(const mat::batch_csr<T>& a)
    : rows_(a.rows()), nnz_(a.nnz())
{
    BATCHLIN_ENSURE_MSG(a.rows() == a.cols(),
                        "ISAI requires square systems");
    const auto& row_ptrs = a.row_ptrs();
    const auto& col_idxs = a.col_idxs();
    gather_offsets_.assign(rows_ + 1, 0);
    for (index_type i = 0; i < rows_; ++i) {
        const index_type s = row_ptrs[i + 1] - row_ptrs[i];
        max_local_size_ = std::max(max_local_size_, s);
        gather_offsets_[i + 1] = gather_offsets_[i] + s * s;
    }
    gather_pos_.assign(gather_offsets_[rows_], -1);
    // Precompute, once per shared pattern, where each entry of the local
    // dense system B[j][s] = A(col_s, col_j) sits in the values array.
    for (index_type i = 0; i < rows_; ++i) {
        const index_type begin = row_ptrs[i];
        const index_type s = row_ptrs[i + 1] - begin;
        index_type* table = gather_pos_.data() + gather_offsets_[i];
        for (index_type j_local = 0; j_local < s; ++j_local) {
            const index_type col_j = col_idxs[begin + j_local];
            for (index_type s_local = 0; s_local < s; ++s_local) {
                const index_type col_s = col_idxs[begin + s_local];
                table[j_local * s + s_local] = find_in_row(
                    row_ptrs.data(), col_idxs.data(), col_s, col_j);
            }
        }
    }
}

template <typename T, typename S>
typename isai<T, S>::applier isai<T, S>::generate(
    xpu::group& g, const blas::csr_view<T, S>& a, xpu::dspan<T> work) const
{
    BATCHLIN_ENSURE_DIMS(a.rows == rows_ && a.nnz == nnz_,
                         "ISAI metadata does not match the matrix");
    // The local dense solves run in compute precision T; only the
    // resulting M values are narrowed to the storage type on store.
    xpu::dspan<S> m_vals = xpu::reinterpret_span<S>(work, a.nnz);
    // Scratch for the per-row dense solves. The simulator runs the
    // work-group on a host thread, so heap scratch stands in for the
    // register/SLM staging the hardware kernel would use.
    const index_type smax = max_local_size_;
    std::vector<T> local(static_cast<std::size_t>(smax) * smax);
    std::vector<T> rhs(smax);
    std::vector<T> sol(smax);
    double flops = 0.0;
    for (index_type i = 0; i < rows_; ++i) {
        const index_type begin = a.row_ptrs[i];
        const index_type s = a.row_ptrs[i + 1] - begin;
        const index_type* table = gather_pos_.data() + gather_offsets_[i];
        // Assemble B with B[j][s_local] = A(col_s, col_j) and rhs = e_i.
        for (index_type j_local = 0; j_local < s; ++j_local) {
            for (index_type s_local = 0; s_local < s; ++s_local) {
                const index_type p = table[j_local * s + s_local];
                local[j_local * s + s_local] =
                    p >= 0 ? static_cast<T>(a.values[p]) : T{0};
            }
            rhs[j_local] = a.col_idxs[begin + j_local] == i ? T{1} : T{0};
        }
        std::vector<T> dense(local.begin(),
                             local.begin() + static_cast<std::size_t>(s) * s);
        std::vector<T> b(rhs.begin(), rhs.begin() + s);
        std::vector<T> x;
        BATCHLIN_ENSURE_MSG(dense_solve<T>(s, std::move(dense), std::move(b),
                                           x),
                            "singular local ISAI system");
        for (index_type s_local = 0; s_local < s; ++s_local) {
            m_vals[begin + s_local] = static_cast<S>(x[s_local]);
        }
        flops += (2.0 / 3.0) * s * s * s + 2.0 * s * s;
    }
    g.barrier();
    g.stats().flops += flops;
    blas::detail::charge_read(g, a.values, a.nnz);
    blas::detail::charge_write(g, m_vals, a.nnz);

    // Implicit view-of-const conversion keeps the sanitizer tag attached
    // to the approximate-inverse values the applier dereferences.
    // A's pattern, so A's SpMV slot count.
    blas::csr_view<T, S> m_view{a.rows,     a.cols,     a.nnz,
                                a.row_ptrs, a.col_idxs, m_vals,
                                a.spmv_slots};
    return {m_view};
}

template class isai<float>;
template class isai<double>;
template class isai<double, float>;

}  // namespace batchlin::precond
