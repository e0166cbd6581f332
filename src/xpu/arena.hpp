// Shared-local-memory (SLM) arena.
//
// Each work-group owns one arena whose capacity equals the device's SLM
// budget per work-group (128 KB per Xe-core on the PVC, §2.2). The solver's
// SLM planner (§3.5) decides which vectors are placed here; allocation is a
// bump pointer because the set of allocations is fixed for the lifetime of
// one solver kernel.
#pragma once

#include <cstddef>
#include <vector>

#include "util/error.hpp"
#include "util/math.hpp"
#include "xpu/fault.hpp"
#include "xpu/span.hpp"

namespace batchlin::xpu {

/// Per-work-group bump allocator standing in for shared local memory.
class slm_arena {
public:
    explicit slm_arena(size_type capacity_bytes);

    /// Allocates `n` elements of T, aligned to alignof(T). Throws when the
    /// request exceeds the remaining capacity — the planner must never let
    /// this happen, so a throw here indicates a planner bug.
    template <typename T>
    dspan<T> alloc(index_type n)
    {
        if (alloc_fail_countdown_ >= 0) {
            // Disarmed (the default, -1) costs one load+compare; the
            // countdown bookkeeping and the throw live out of line.
            check_alloc_fault();
        }
        const size_type offset = align_up(used_, alignof(T));
        const size_type bytes = static_cast<size_type>(n) * sizeof(T);
        BATCHLIN_ENSURE_MSG(offset + bytes <= capacity_,
                            "SLM arena overflow: planner allocated beyond "
                            "the device SLM budget");
        used_ = offset + bytes;
        if (used_ > high_water_) {
            high_water_ = used_;
        }
        dspan<T> out{reinterpret_cast<T*>(buffer_.data() + offset), n,
                     mem_space::slm};
#ifdef BATCHLIN_XPU_CHECK
        if (checker_ != nullptr && checker_->active()) {
            out.tag = checker_->register_slm_region(bytes);
        }
#endif
        return out;
    }

    /// Releases all allocations (start of the next work-group's kernel).
    void reset()
    {
        used_ = 0;
#ifdef BATCHLIN_XPU_CHECK
        if (checker_ != nullptr && checker_->active()) {
            checker_->on_slm_reset();
        }
#endif
    }

#ifdef BATCHLIN_XPU_CHECK
    /// Attaches the sanitizer for the coming launch (nullptr detaches);
    /// subsequent allocations hand out tagged, shadow-tracked spans.
    void set_checker(check::group_checker* checker) { checker_ = checker; }
    check::group_checker* checker() const { return checker_; }
#endif

    /// Prepares a pooled arena for the next kernel launch: releases all
    /// allocations AND restarts the high-water tracking, so a reused arena
    /// reports exactly the footprint a freshly constructed one would. The
    /// queue calls this once per launch per thread.
    void begin_launch()
    {
        used_ = 0;
        high_water_ = 0;
        alloc_fail_countdown_ = -1;
    }

    /// Arms the fault injector: the `nth` (0-based) allocation after this
    /// call throws `device_error`. Negative disarms. The queue arms the
    /// arena only for the faulted group and disarms right after it.
    void arm_alloc_failure(index_type nth) { alloc_fail_countdown_ = nth; }

    /// Armed-countdown slow path of `alloc` (fault.cpp).
    void check_alloc_fault();

    /// Raw backing storage, for the fault injector's poison strikes (the
    /// simulator analogue of a physical-memory fault, which does not go
    /// through the allocation interface either).
    std::byte* storage() { return buffer_.data(); }

    size_type capacity() const { return capacity_; }
    size_type used() const { return used_; }
    /// Largest concurrent footprint seen since construction; this is the
    /// per-work-group SLM requirement that limits occupancy.
    size_type high_water() const { return high_water_; }

private:
    static size_type align_up(size_type value, size_type alignment)
    {
        return (value + alignment - 1) / alignment * alignment;
    }

    std::vector<std::byte> buffer_;
    size_type capacity_;
    size_type used_ = 0;
    size_type high_water_ = 0;
    index_type alloc_fail_countdown_ = -1;
#ifdef BATCHLIN_XPU_CHECK
    check::group_checker* checker_ = nullptr;
#endif
};

}  // namespace batchlin::xpu
