// BatchEll: batched ELLPACK matrices with one shared pattern
// (paper §3.1, Fig. 2).
//
// Rows are padded to a uniform width (max non-zeros per row), removing the
// row-pointer array. Column indexes and values are stored column-major —
// entry (row, k) of the padded layout lives at k*rows + row — so that
// consecutive work-items (one per row, §3.2) access consecutive addresses:
// the coalescing property the paper optimizes for.
#pragma once

#include <vector>

#include "matrix/storage.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "xpu/span.hpp"

namespace batchlin::mat {

/// Column index marking a padding slot of the ELL layout.
inline constexpr index_type ell_padding = -1;

/// The padded values live in batch_values (see batch_csr); this class adds
/// the shape and the shared column-index pattern.
template <typename T>
class batch_ell : public batch_values<T> {
public:
    using value_type = T;

    batch_ell() = default;

    /// Allocates a batch with the given padded width; pattern slots start as
    /// padding and values as zero.
    batch_ell(index_type num_batch_items, index_type rows, index_type cols,
              index_type ell_width)
        : batch_values<T>(num_batch_items,
                          static_cast<size_type>(rows) * ell_width),
          rows_(rows),
          cols_(cols),
          width_(ell_width),
          col_idxs_(static_cast<std::size_t>(rows) * ell_width, ell_padding)
    {
        BATCHLIN_ENSURE_MSG(
            num_batch_items >= 0 && rows >= 0 && cols >= 0 && ell_width >= 0,
            "negative dimension");
    }

    index_type rows() const { return rows_; }
    index_type cols() const { return cols_; }
    /// Uniform (padded) number of stored entries per row.
    index_type ell_width() const { return width_; }
    /// Stored entries per item including padding.
    size_type stored_per_item() const { return this->values_per_item(); }

    /// Column-major linear index of padded slot (row, k).
    size_type slot(index_type row, index_type k) const
    {
        BATCHLIN_ENSURE_DIMS(row >= 0 && row < rows_ && k >= 0 && k < width_,
                             "ELL slot out of range");
        return static_cast<size_type>(k) * rows_ + row;
    }

    index_type& col_at(index_type row, index_type k)
    {
        return col_idxs_[slot(row, k)];
    }
    index_type col_at(index_type row, index_type k) const
    {
        return col_idxs_[slot(row, k)];
    }

    T& val_at(index_type batch, index_type row, index_type k)
    {
        return this->item_values(batch)[slot(row, k)];
    }
    T val_at(index_type batch, index_type row, index_type k) const
    {
        return this->item_value(batch, slot(row, k));
    }

    const std::vector<index_type>& col_idxs() const { return col_idxs_; }
    std::vector<index_type>& col_idxs() { return col_idxs_; }

    xpu::dspan<const T> item_span(index_type batch) const
    {
        return this->template item_span_as<T>(batch);
    }

    /// Throws on malformed patterns: out-of-range columns or values stored
    /// in padding slots.
    void validate() const;

    /// Non-padding entries per item (the logical nnz).
    index_type nnz() const;

    /// Total storage in bytes including the shared pattern (Fig. 2).
    size_type storage_bytes() const
    {
        return this->value_storage_bytes() +
               static_cast<size_type>(col_idxs_.size()) * sizeof(index_type);
    }

private:
    index_type rows_ = 0;
    index_type cols_ = 0;
    index_type width_ = 0;
    std::vector<index_type> col_idxs_;
};

}  // namespace batchlin::mat
