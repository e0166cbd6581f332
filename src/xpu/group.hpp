// Work-group execution context.
//
// The paper maps one work-group to one linear system (§3.2) and writes every
// solver as a single fused kernel over that work-group (§3.4). Our simulator
// executes each work-group on one CPU thread; the kernel body is expressed as
// a sequence of barrier-delimited data-parallel phases over the work-items
// (`for_each_item`), which is the hierarchical-SPMD form CPU implementations
// of SYCL lower ND-range kernels into. Collectives implement both reduction
// strategies the paper discusses: the SYCL work-group reduction primitive
// (SLM-based) and the sub-group shuffle path (§3.2, §3.6).
#pragma once

#include <cmath>
#include <utility>

#include "util/math.hpp"
#include "xpu/arena.hpp"
#include "xpu/counters.hpp"
#include "xpu/policy.hpp"

namespace batchlin::xpu {

/// Execution context handed to a batched kernel body; models one SYCL
/// work-group (= one CUDA thread block) solving one batch entry.
class group {
public:
    group(index_type group_id, index_type group_size,
          index_type sub_group_size, slm_arena& slm, counters& stats)
        : id_(group_id),
          size_(group_size),
          sub_group_size_(sub_group_size),
          slm_(slm),
          stats_(stats)
    {}

    /// Index of this work-group within the ND-range (== batch entry index).
    index_type id() const { return id_; }
    /// Number of work-items in this work-group.
    index_type size() const { return size_; }
    index_type sub_group_size() const { return sub_group_size_; }
    index_type num_sub_groups() const
    {
        return ceil_div(size_, sub_group_size_);
    }

    slm_arena& slm() { return slm_; }
    counters& stats() { return stats_; }

    /// Arms a scheduled poison fault for this group: `event` strikes at
    /// the `event->phase`-th barrier this group executes. `spill` /
    /// `spill_bytes` bound the launch-wide spilled workspace; the kernel's
    /// binder narrows them to this group's slice via note_global_region.
    /// Null disarms (the default state; one pointer test per barrier).
    void arm_fault(const fault_event* event, std::byte* spill,
                   size_type spill_bytes, unsigned seed)
    {
        fault_event_ = event;
        fault_spill_ = spill;
        fault_spill_bytes_ = spill_bytes;
        fault_seed_ = seed;
        fault_barriers_ = 0;
    }

    /// True while a poison fault is pending on this group; the workspace
    /// binder uses it to gate spill-region bookkeeping off the hot path.
    bool fault_armed() const { return fault_event_ != nullptr; }

    /// Narrows the poison target to this group's own spilled workspace so
    /// a strike never touches another group's memory (which would race).
    void note_global_region(std::byte* base, size_type bytes)
    {
        fault_spill_ = base;
        fault_spill_bytes_ = bytes;
    }

#ifdef BATCHLIN_XPU_CHECK
    /// Attaches the sanitizer: work-item loops route through its lane
    /// scheduler, barriers and collectives report to it.
    void set_checker(check::group_checker* checker) { checker_ = checker; }
    check::group_checker* checker() const { return checker_; }
#endif

    /// Executes `f(item)` for every work-item of the group. A work-group
    /// barrier is implied after the phase, matching the ND-range kernel this
    /// lowers from.
    template <typename F>
    void for_each_item(F&& f)
    {
#ifdef BATCHLIN_XPU_CHECK
        if (checker_ != nullptr) {
            checker_->run_lane_loop(size_, size_, f);
            barrier();
            return;
        }
#endif
        for (index_type item = 0; item < size_; ++item) {
            f(item);
        }
        barrier();
    }

    /// Executes `f(i)` for logical indices [0, n). When n exceeds the
    /// work-group size the hardware kernel grid-strides; the simulator's
    /// serial lane loop covers both cases. A barrier is implied after.
    template <typename F>
    void for_items(index_type n, F&& f)
    {
#ifdef BATCHLIN_XPU_CHECK
        if (checker_ != nullptr) {
            checker_->run_lane_loop(size_, n, f);
            barrier();
            return;
        }
#endif
        for (index_type item = 0; item < n; ++item) {
            f(item);
        }
        barrier();
    }

    /// Work-group barrier (local memory fence). Only counts the event; a
    /// single simulator thread executes the group, so no synchronization is
    /// needed for correctness.
    void barrier()
    {
#ifdef BATCHLIN_XPU_CHECK
        if (checker_ != nullptr) {
            checker_->on_barrier();
        }
#endif
        if (fault_event_ != nullptr) {
            fault_strike();
        }
        ++stats_.group_barriers;
    }

    /// Reduces `value_of(item)` for item in [0, n) to a single sum using the
    /// selected strategy. Deterministic: lanes are combined per sub-group in
    /// ascending order, then across sub-groups in ascending order — the same
    /// order both hardware paths produce for our chunk sizes.
    template <typename T, typename F>
    T reduce_sum(index_type n, F&& value_of, reduce_path path)
    {
        const T total = combine<T>(
            n, value_of, [](T& acc, const T& v) { acc += v; },
            "group::reduce_sum()");
        charge_reduction<T>(n, path, 1);
        return total;
    }

    /// Two sums in one collective: `value_of(item)` returns a pair, and
    /// each component is combined in reduce_sum's order, so each sum is
    /// bit-identical to its own reduce_sum. Each value is staged through
    /// SLM as reduce_sum stages one, but the combine tree's barriers are
    /// paid once.
    template <typename T, typename F>
    std::pair<T, T> reduce_sum2(index_type n, F&& value_of, reduce_path path)
    {
        const std::pair<T, T> total = combine<std::pair<T, T>>(
            n, value_of,
            [](std::pair<T, T>& acc, const std::pair<T, T>& v) {
                acc.first += v.first;
                acc.second += v.second;
            },
            "group::reduce_sum2()");
        charge_reduction<T>(n, path, 2);
        return total;
    }

    /// Broadcasts a value computed by lane 0; a register broadcast within a
    /// sub-group. Across sub-groups the value bounces through SLM, which
    /// also costs the work-group barrier that makes the bounce visible.
    template <typename T>
    T broadcast(T value)
    {
#ifdef BATCHLIN_XPU_CHECK
        if (checker_ != nullptr) {
            checker_->require_uniform("group::broadcast()");
        }
#endif
        if (num_sub_groups() > 1) {
            stats_.slm_bytes +=
                static_cast<double>(num_sub_groups()) * sizeof(T);
            ++stats_.group_barriers;
        }
        return value;
    }

private:
    /// The combine loop of the reductions: `add(partial, value_of(item))`
    /// per sub-group in ascending item order, then `add(total, partial)`
    /// across sub-groups in ascending order. One flat loop over the items
    /// (a countdown marks each sub-group's end), so a fused SpMV's row loop
    /// inlined into `value_of` keeps its registers on the host.
    template <typename V, typename F, typename Add>
    V combine(index_type n, F& value_of, Add add, const char* what)
    {
#ifdef BATCHLIN_XPU_CHECK
        if (checker_ != nullptr) {
            checker_->begin_collective(what);
        }
#else
        (void)what;
#endif
        V total{};
        V partial{};
        index_type left = sub_group_size_;
        for (index_type item = 0; item < n; ++item) {
#ifdef BATCHLIN_XPU_CHECK
            // Each contribution is read by the hardware lane owning the
            // item; the combine order itself stays ascending (both
            // hardware reduction paths are order-deterministic here).
            if (checker_ != nullptr) {
                checker_->set_lane(item % size_);
            }
#endif
            add(partial, value_of(item));
            if (--left == 0 || item + 1 == n) {
                add(total, partial);
                partial = V{};
                left = sub_group_size_;
            }
        }
#ifdef BATCHLIN_XPU_CHECK
        if (checker_ != nullptr) {
            checker_->end_collective();
        }
#endif
        return total;
    }

    /// Attributes the cost of one reduction of `values` sums over `n`
    /// items to the counters.
    template <typename T>
    void charge_reduction(index_type n, reduce_path path, int values)
    {
        stats_.flops += static_cast<double>(values) * n;
        if (path == reduce_path::group) {
            // The SYCL group primitive stages all lane values through SLM
            // and runs a tree combine: one write and ~one read per lane.
            stats_.slm_bytes += 2.0 * values * static_cast<double>(size_) *
                                sizeof(T);
            stats_.group_barriers += static_cast<std::int64_t>(
                std::ceil(std::log2(static_cast<double>(size_))));
        } else {
            // Sub-group shuffles stay in registers; only the per-sub-group
            // partials cross SLM, and only when there is more than one.
            const index_type active_sub_groups =
                ceil_div(n, sub_group_size_);
            if (active_sub_groups > 1) {
                stats_.slm_bytes += 2.0 * values *
                                    static_cast<double>(active_sub_groups) *
                                    sizeof(T);
                stats_.group_barriers += 1;
            }
        }
    }

    /// Executes a pending poison fault once its barrier phase is reached:
    /// corrupts a deterministically chosen spot of the target region and
    /// disarms. Defined out of line (fault.cpp) so `barrier()` stays a
    /// handful of instructions at every inlined call site.
    void fault_strike();

    index_type id_;
    index_type size_;
    index_type sub_group_size_;
    slm_arena& slm_;
    counters& stats_;
    const fault_event* fault_event_ = nullptr;
    std::byte* fault_spill_ = nullptr;
    size_type fault_spill_bytes_ = 0;
    unsigned fault_seed_ = 0;
    index_type fault_barriers_ = 0;
#ifdef BATCHLIN_XPU_CHECK
    check::group_checker* checker_ = nullptr;
#endif
};

}  // namespace batchlin::xpu
