// BatchCsr: batched CSR matrices with one shared sparsity pattern
// (paper §3.1, Fig. 2).
//
// All systems of the problem space share a sparsity pattern, so the row
// pointers and column indexes are stored once; only the numeric values are
// replicated per batch item. Storage cost (Fig. 2):
//   num_items × nnz values  +  (rows+1) row pointers  +  nnz column indexes.
#pragma once

#include <vector>

#include "matrix/storage.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "xpu/span.hpp"

namespace batchlin::mat {

/// The values, their storage width and item access come from
/// batch_values; this class adds the shape and the shared pattern.
template <typename T>
class batch_csr : public batch_values<T> {
public:
    using value_type = T;

    batch_csr() = default;

    /// Builds a batch from a shared pattern; values are zero-initialized.
    /// `row_ptrs` has rows+1 entries; `col_idxs` has row_ptrs[rows] entries.
    batch_csr(index_type num_batch_items, index_type rows, index_type cols,
              std::vector<index_type> row_ptrs,
              std::vector<index_type> col_idxs);

    index_type rows() const { return rows_; }
    index_type cols() const { return cols_; }
    /// Non-zeros per batch item (the shared pattern's count).
    index_type nnz() const
    {
        return static_cast<index_type>(this->values_per_item());
    }

    const std::vector<index_type>& row_ptrs() const { return row_ptrs_; }
    const std::vector<index_type>& col_idxs() const { return col_idxs_; }

    /// Device view of one item's native values, tagged constant.
    xpu::dspan<const T> item_span(index_type batch) const
    {
        return this->template item_span_as<T>(batch);
    }

    /// Value at (row, col) of one item, or 0 when outside the pattern.
    T at(index_type batch, index_type row, index_type col) const;

    /// Throws when the pattern is malformed: non-monotonic row pointers,
    /// column indexes out of range or unsorted within a row, duplicates.
    void validate() const;

    /// Position of each row's diagonal entry within the values array, or -1
    /// when the diagonal is not part of the pattern. Used by the Jacobi and
    /// ILU0 preconditioner generation.
    std::vector<index_type> diagonal_positions() const;

    /// Total storage in bytes including the shared pattern (Fig. 2).
    size_type storage_bytes() const
    {
        return this->value_storage_bytes() +
               static_cast<size_type>(row_ptrs_.size() + col_idxs_.size()) *
                   sizeof(index_type);
    }

private:
    index_type rows_ = 0;
    index_type cols_ = 0;
    std::vector<index_type> row_ptrs_;
    std::vector<index_type> col_idxs_;
};

}  // namespace batchlin::mat
