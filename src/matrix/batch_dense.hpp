// BatchDense: batched dense matrices and multivectors (paper §3.1, Fig. 2).
//
// Stores `num_batch_items` row-major rows×cols blocks contiguously
// (batch-major). Right-hand sides and solution vectors of the batched
// solvers are BatchDense objects with one column, following Ginkgo's
// convention.
#pragma once

#include <algorithm>
#include <vector>

#include "matrix/storage.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "xpu/span.hpp"

namespace batchlin::mat {

/// The values live in batch_values (see batch_csr); this class adds the
/// shape. fp32 storage is for dense *system matrices* (spmv operands):
/// vectors (b, x, workspace multivectors) stay native, since the solvers
/// write them in compute precision every iteration.
template <typename T>
class batch_dense : public batch_values<T> {
public:
    using value_type = T;

    batch_dense() = default;

    /// Allocates storage for `num_batch_items` matrices of size rows×cols,
    /// zero-initialized.
    batch_dense(index_type num_batch_items, index_type rows, index_type cols)
        : batch_values<T>(num_batch_items,
                          static_cast<size_type>(rows) * cols),
          rows_(rows),
          cols_(cols)
    {
        BATCHLIN_ENSURE_MSG(num_batch_items >= 0 && rows >= 0 && cols >= 0,
                            "negative dimension");
    }

    index_type rows() const { return rows_; }
    index_type cols() const { return cols_; }
    /// Entries of one batch item.
    size_type item_size() const { return this->values_per_item(); }

    T& at(index_type batch, index_type row, index_type col)
    {
        return this->item_values(batch)[static_cast<size_type>(row) * cols_ +
                                        col];
    }
    /// By value, not by reference: under fp32 storage there is no T-typed
    /// element to point at, so the const read widens on the fly.
    T at(index_type batch, index_type row, index_type col) const
    {
        return this->item_value(batch,
                                static_cast<size_type>(row) * cols_ + col);
    }

    /// Tagged view of one item's values for device kernels.
    xpu::dspan<T> item_span(index_type batch,
                            xpu::mem_space space = xpu::mem_space::global)
    {
        return {this->item_values(batch),
                static_cast<index_type>(item_size()), space};
    }
    xpu::dspan<const T> item_span(
        index_type batch,
        xpu::mem_space space = xpu::mem_space::global) const
    {
        return this->template item_span_as<T>(batch, space);
    }

    void fill(T value)
    {
        std::vector<T>& vals = this->values();
        std::fill(vals.begin(), vals.end(), value);
    }

    /// Total value storage in bytes (the BatchDense row of Fig. 2).
    size_type storage_bytes() const { return this->value_storage_bytes(); }

private:
    index_type rows_ = 0;
    index_type cols_ = 0;
};

}  // namespace batchlin::mat
