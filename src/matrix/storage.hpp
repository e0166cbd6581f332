// Storage-precision policy: decouple how matrix values are *stored* from
// the precision the solvers *compute* in.
//
// Every solver in this codebase is bandwidth-bound (paper §roofline,
// bench_fig8_roofline), so the bytes streamed for the matrix values and
// preconditioner payloads — not flops — set the solves/sec ceiling. The
// Ginkgo Intel-port line of work shows that storing those read-only
// payloads in FP32 while keeping FP64 arithmetic roughly halves the
// dominant traffic term. The lost bits are recovered by an outer
// iterative-refinement loop (solver::solve_refined) that measures the true
// FP64 residual against the native-precision matrix.
#pragma once

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/math.hpp"
#include "xpu/span.hpp"

namespace batchlin::mat {

/// How a batched matrix holds its values (and, downstream, how the
/// preconditioner payloads derived from it are held).
enum class storage_precision {
    /// Values stored in the compute type T (the historical behaviour).
    native,
    /// Values stored as float regardless of T; kernels widen on read.
    fp32,
};

std::string to_string(storage_precision mode);

/// Parses "native" / "fp32"; throws on anything else.
storage_precision parse_storage_precision(const std::string& name);

/// fp32 storage is meaningless when the compute type already is 4 bytes
/// wide; collapse it to native so `storage_mode() == fp32` reliably means
/// "the values arrays really are float and really are half-width".
template <typename T>
constexpr storage_precision effective_storage(storage_precision mode)
{
    if (sizeof(T) <= sizeof(float)) {
        return storage_precision::native;
    }
    return mode;
}

/// The value array of a batch (paper §3.1, Fig. 2): every item shares one
/// pattern, so the values are the only per-item data. `num_batch_items()`
/// items of `values_per_item()` values each, batch-major, held in exactly
/// one of two arrays: the native T array, or under fp32 storage a float
/// array (the native one is released, so the footprint really halves).
/// BatchCsr, BatchEll and BatchDense derive from it and add only their
/// dimensions and pattern.
template <typename T>
class batch_values {
public:
    batch_values() = default;

    /// `items` items of `per_item` zero values each, stored natively.
    batch_values(index_type items, size_type per_item)
        : items_(items), per_item_(per_item)
    {
        BATCHLIN_ENSURE_MSG(items >= 0 && per_item >= 0,
                            "negative dimension");
        values_.resize(static_cast<std::size_t>(items) *
                       static_cast<std::size_t>(per_item));
    }

    index_type num_batch_items() const { return items_; }
    /// Values stored per item, padding included: the stride between items
    /// and the value count one solve streams per system.
    size_type values_per_item() const { return per_item_; }

    /// How the values are stored; fp32 means the float-typed accessors
    /// are live and the T-typed ones throw.
    storage_precision storage_mode() const { return storage_; }

    /// Converts the values in place. fp32 -> native round trips keep only
    /// fp32 accuracy (the narrowing happened on the way in); callers that
    /// need the original matrix back retain a native copy instead. For
    /// 4-byte T, fp32 collapses to native (see effective_storage).
    void set_storage_precision(storage_precision mode)
    {
        mode = effective_storage<T>(mode);
        if (mode == storage_) {
            return;
        }
        if (mode == storage_precision::fp32) {
            values32_.assign(values_.begin(), values_.end());
            values_.clear();
            values_.shrink_to_fit();
        } else {
            values_.assign(values32_.begin(), values32_.end());
            values32_.clear();
            values32_.shrink_to_fit();
        }
        storage_ = mode;
    }

    /// Storage-typed access: S = T is the native array, S = float the fp32
    /// one (for 4-byte T, both name the native array). Asking for the
    /// width that is not live throws.
    template <typename S>
    const std::vector<S>& values_as() const
    {
        if constexpr (std::is_same_v<S, T>) {
            BATCHLIN_ENSURE_MSG(storage_ == storage_precision::native,
                                "native-typed value access on an "
                                "fp32-storage batch");
            return values_;
        } else {
            static_assert(std::is_same_v<S, float>,
                          "fp32 is the only reduced storage type");
            BATCHLIN_ENSURE_MSG(storage_ == storage_precision::fp32,
                                "fp32 value access on a native-storage "
                                "batch");
            return values32_;
        }
    }
    template <typename S>
    std::vector<S>& values_as()
    {
        return const_cast<std::vector<S>&>(
            std::as_const(*this).template values_as<S>());
    }
    template <typename S>
    const S* item_values_as(index_type batch) const
    {
        const S* data = values_as<S>().data();
        return data + item_offset(batch);
    }
    template <typename S>
    S* item_values_as(index_type batch)
    {
        S* data = values_as<S>().data();
        return data + item_offset(batch);
    }
    /// Device view of one item's values; matrix values are read-only
    /// during the solve, hence constant (L3-cacheable, §4.4) by default.
    template <typename S>
    xpu::dspan<const S> item_span_as(
        index_type batch,
        xpu::mem_space space = xpu::mem_space::constant) const
    {
        return {item_values_as<S>(batch),
                static_cast<index_type>(per_item_), space};
    }

    std::vector<T>& values() { return values_as<T>(); }
    const std::vector<T>& values() const { return values_as<T>(); }
    T* item_values(index_type batch) { return item_values_as<T>(batch); }
    const T* item_values(index_type batch) const
    {
        return item_values_as<T>(batch);
    }
    std::vector<float>& values_fp32() { return values_as<float>(); }
    const std::vector<float>& values_fp32() const
    {
        return values_as<float>();
    }
    float* item_values_fp32(index_type batch)
    {
        return item_values_as<float>(batch);
    }
    const float* item_values_fp32(index_type batch) const
    {
        return item_values_as<float>(batch);
    }
    xpu::dspan<const float> item_span_fp32(index_type batch) const
    {
        return item_span_as<float>(batch);
    }

    /// Calls `f` with `std::type_identity<S>` of the live storage type S
    /// (T or float): the one switch from the runtime storage mode to a
    /// compile-time storage type.
    template <typename F>
    decltype(auto) visit_storage_type(F&& f) const
    {
        if (storage_ == storage_precision::fp32) {
            return f(std::type_identity<float>{});
        }
        return f(std::type_identity<T>{});
    }

    /// Calls `f` with a pointer to one item's values at the live width
    /// (`T*` or `float*`, const as `*this` is).
    template <typename F>
    decltype(auto) visit_item(index_type batch, F&& f) const
    {
        return visit_storage_type([&](auto s) -> decltype(auto) {
            return f(item_values_as<typename decltype(s)::type>(batch));
        });
    }
    template <typename F>
    decltype(auto) visit_item(index_type batch, F&& f)
    {
        return visit_storage_type([&](auto s) -> decltype(auto) {
            return f(item_values_as<typename decltype(s)::type>(batch));
        });
    }

    /// Value `k` of one item, widened to T whatever the storage width.
    T item_value(index_type batch, size_type k) const
    {
        const size_type i = item_offset(batch) + k;
        return storage_ == storage_precision::fp32
                   ? static_cast<T>(values32_[i])
                   : values_[i];
    }

    /// Bytes one solve streams for one item's values (storage-aware);
    /// feeds the perfmodel constant-footprint accounting.
    size_type value_bytes_per_item() const
    {
        const size_type width = storage_ == storage_precision::fp32
                                    ? sizeof(float)
                                    : sizeof(T);
        return per_item_ * width;
    }

    /// Bytes the values occupy: honest under fp32 storage, since the
    /// native array is released on conversion.
    size_type value_storage_bytes() const
    {
        return static_cast<size_type>(values_.size()) * sizeof(T) +
               static_cast<size_type>(values32_.size()) * sizeof(float);
    }

private:
    size_type item_offset(index_type batch) const
    {
        BATCHLIN_ENSURE_DIMS(batch >= 0 && batch < items_,
                             "batch index out of range");
        return static_cast<size_type>(batch) * per_item_;
    }

    index_type items_ = 0;
    size_type per_item_ = 0;
    storage_precision storage_ = storage_precision::native;
    std::vector<T> values_;
    std::vector<float> values32_;
};

/// The one item-copy primitive under every gather and scatter: copies
/// `count` consecutive items of `src`, starting at item `from`, into `dst`
/// starting at item `to`. Reads whichever value array of `src` is live and
/// writes the live array of `dst`, converting on the way; the two must
/// share format and pattern.
template <typename M>
void copy_items(const M& src, index_type from, M& dst, index_type to,
                index_type count = 1)
{
    BATCHLIN_ENSURE_DIMS(from >= 0 && to >= 0 && count >= 0 &&
                             from + count <= src.num_batch_items() &&
                             to + count <= dst.num_batch_items() &&
                             src.values_per_item() == dst.values_per_item(),
                         "item copy out of range");
    if (count == 0) {
        return;
    }
    const size_type n = src.values_per_item() * count;
    src.visit_item(from, [&](const auto* in) {
        dst.visit_item(to, [&](auto* out) {
            using V = std::remove_pointer_t<decltype(out)>;
            std::transform(in, in + n, out,
                           [](auto v) { return static_cast<V>(v); });
        });
    });
}

}  // namespace batchlin::mat
