#include "matrix/batch_csr.hpp"

namespace batchlin::mat {

template <typename T>
batch_csr<T>::batch_csr(index_type num_batch_items, index_type rows,
                        index_type cols, std::vector<index_type> row_ptrs,
                        std::vector<index_type> col_idxs)
    : batch_values<T>(num_batch_items,
                      row_ptrs.empty() ? 0 : row_ptrs.back()),
      rows_(rows),
      cols_(cols),
      row_ptrs_(std::move(row_ptrs)),
      col_idxs_(std::move(col_idxs))
{
    BATCHLIN_ENSURE_MSG(num_batch_items >= 0 && rows >= 0 && cols >= 0,
                        "negative dimension");
    BATCHLIN_ENSURE_DIMS(
        static_cast<index_type>(row_ptrs_.size()) == rows + 1,
        "row pointer array must have rows+1 entries");
    BATCHLIN_ENSURE_DIMS(static_cast<index_type>(col_idxs_.size()) == nnz(),
                         "column index array size must equal nnz");
    validate();
}

template <typename T>
T batch_csr<T>::at(index_type batch, index_type row, index_type col) const
{
    BATCHLIN_ENSURE_DIMS(batch >= 0 && batch < this->num_batch_items() &&
                             row >= 0 && row < rows_ && col >= 0 &&
                             col < cols_,
                         "entry index out of range");
    for (index_type k = row_ptrs_[row]; k < row_ptrs_[row + 1]; ++k) {
        if (col_idxs_[k] == col) {
            return this->item_value(batch, k);
        }
    }
    return T{0};
}

template <typename T>
void batch_csr<T>::validate() const
{
    BATCHLIN_ENSURE_MSG(row_ptrs_.front() == 0,
                        "row pointers must start at zero");
    for (index_type row = 0; row < rows_; ++row) {
        BATCHLIN_ENSURE_MSG(row_ptrs_[row] <= row_ptrs_[row + 1],
                            "row pointers must be non-decreasing");
        for (index_type k = row_ptrs_[row]; k < row_ptrs_[row + 1]; ++k) {
            BATCHLIN_ENSURE_MSG(col_idxs_[k] >= 0 && col_idxs_[k] < cols_,
                                "column index out of range");
            if (k > row_ptrs_[row]) {
                BATCHLIN_ENSURE_MSG(col_idxs_[k - 1] < col_idxs_[k],
                                    "column indexes must be strictly "
                                    "increasing within a row");
            }
        }
    }
}

template <typename T>
std::vector<index_type> batch_csr<T>::diagonal_positions() const
{
    std::vector<index_type> positions(rows_, -1);
    for (index_type row = 0; row < rows_; ++row) {
        for (index_type k = row_ptrs_[row]; k < row_ptrs_[row + 1]; ++k) {
            if (col_idxs_[k] == row) {
                positions[row] = k;
                break;
            }
        }
    }
    return positions;
}

template class batch_csr<float>;
template class batch_csr<double>;

}  // namespace batchlin::mat
