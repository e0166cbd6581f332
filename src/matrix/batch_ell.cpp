#include "matrix/batch_ell.hpp"

namespace batchlin::mat {

template <typename T>
void batch_ell<T>::validate() const
{
    for (index_type row = 0; row < rows_; ++row) {
        for (index_type k = 0; k < width_; ++k) {
            const index_type col = col_at(row, k);
            BATCHLIN_ENSURE_MSG(col == ell_padding ||
                                    (col >= 0 && col < cols_),
                                "ELL column index out of range");
            if (col == ell_padding) {
                for (index_type b = 0; b < this->num_batch_items(); ++b) {
                    BATCHLIN_ENSURE_MSG(val_at(b, row, k) == T{0},
                                        "non-zero value stored in an ELL "
                                        "padding slot");
                }
            }
        }
    }
}

template <typename T>
index_type batch_ell<T>::nnz() const
{
    index_type count = 0;
    for (index_type row = 0; row < rows_; ++row) {
        for (index_type k = 0; k < width_; ++k) {
            if (col_at(row, k) != ell_padding) {
                ++count;
            }
        }
    }
    return count;
}

template class batch_ell<float>;
template class batch_ell<double>;

}  // namespace batchlin::mat
