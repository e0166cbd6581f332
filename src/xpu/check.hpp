// xpu::check — the kernel portability sanitizer.
//
// The simulator executes each work-group as a serial lane loop, so kernel
// bugs that are real data races or lane-order dependences on PVC hardware
// (and in any CPU-SYCL lowering of the ND-range form) run silently
// "correct" here. This layer instruments the execution model — spans,
// SLM arena, group collectives, barriers — and proves each kernel body is
// portable SPMD code:
//
//  * shadow SLM        — reads of uninitialized SLM/spill bytes, indexing
//                        out of bounds, use of an allocation after reset()
//  * phase hazards     — cross-lane write-write / read-write overlaps on
//                        tracked memory within one barrier phase
//  * uniformity        — barriers and collectives must be invoked from
//                        uniform (non-diverged) control flow
//  * lane-order        — adversary mode runs each phase's lanes reversed
//                        or shuffled; race-free kernels are bit-identical
//
// Everything in this header is compiled only under BATCHLIN_XPU_CHECK;
// default builds carry no trace of it (dspan has no tag member, group and
// arena have no checker pointer, operator[] returns a plain reference).
#pragma once

#ifdef BATCHLIN_XPU_CHECK

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/math.hpp"
#include "xpu/policy.hpp"

namespace batchlin::xpu::check {

/// Pseudo-lane of group-uniform execution: code running between work-item
/// loops, which SYCL's hierarchical form executes once per work-group with
/// implicit barriers around each work-item loop.
inline constexpr index_type uniform_lane = -1;

/// The diagnostic classes the checker reports. Each deliberately-buggy
/// fixture kernel in tests/test_xpu_check.cpp triggers exactly one.
enum class diagnostic {
    /// A read of SLM or spill-scratch bytes never written in this group.
    uninitialized_read,
    /// Span indexing outside [0, len).
    out_of_bounds,
    /// Access through a span whose SLM allocation was released by reset().
    use_after_reset,
    /// Two different lanes touched overlapping bytes in one barrier phase
    /// with at least one write — a data race on real hardware.
    phase_race,
    /// A barrier or collective invoked from inside a per-lane region.
    nonuniform_collective,
    /// Outputs differ between lane execution orders.
    lane_order_dependence,
};

std::string to_string(diagnostic kind);

/// Structured violation report. Byte ranges are relative to the start of
/// the offending allocation (SLM region or spill slot).
struct violation {
    diagnostic kind = diagnostic::uninitialized_read;
    std::string kernel;
    index_type group = -1;
    index_type phase = -1;
    index_type lane_a = uniform_lane;
    index_type lane_b = uniform_lane;
    size_type byte_begin = 0;
    size_type byte_end = 0;
    std::string detail;
};

/// One-line human-readable rendering of a violation.
std::string describe(const violation& v);

/// Exception carrying a structured violation; derives from batchlin::error
/// so existing catch sites (and run_batch's cross-thread rethrow) handle it.
class check_violation : public batchlin::error {
public:
    explicit check_violation(violation v)
        : batchlin::error("xpu::check", 0, describe(v)), report_(std::move(v))
    {}

    const violation& report() const { return report_; }

private:
    violation report_;
};

class group_checker;

/// Instrumentation tag a dspan carries in checked builds: the owning
/// checker, the registered allocation, and the span's byte offset into it.
/// Default-constructed (untagged) spans index unchecked memory — global
/// operands, raw-pointer escapes — which the checker cannot track.
struct span_tag {
    group_checker* chk = nullptr;
    index_type region = -1;
    size_type offset = 0;
};

/// Proxy returned by dspan::operator[] on tagged spans: records the read
/// or write with the checker, then forwards to the underlying element.
template <typename T>
class checked_ref {
public:
    using value_type = std::remove_cv_t<T>;

    checked_ref(T* p, group_checker* chk, index_type region,
                size_type offset)
        : p_(p), chk_(chk), region_(region), offset_(offset)
    {}

    checked_ref(const checked_ref&) = default;

    operator value_type() const
    {
        record(false);
        return *p_;
    }

    checked_ref& operator=(const value_type& v)
        requires(!std::is_const_v<T>)
    {
        record(true);
        *p_ = v;
        return *this;
    }

    /// Assigning one element to another must copy the value, not rebind
    /// the proxy (records a read of `other` and a write of *this).
    checked_ref& operator=(const checked_ref& other)
        requires(!std::is_const_v<T>)
    {
        return *this = static_cast<value_type>(other);
    }

    checked_ref& operator+=(const value_type& v)
        requires(!std::is_const_v<T>)
    {
        record(false);
        record(true);
        *p_ += v;
        return *this;
    }

    checked_ref& operator-=(const value_type& v)
        requires(!std::is_const_v<T>)
    {
        record(false);
        record(true);
        *p_ -= v;
        return *this;
    }

    checked_ref& operator*=(const value_type& v)
        requires(!std::is_const_v<T>)
    {
        record(false);
        record(true);
        *p_ *= v;
        return *this;
    }

    checked_ref& operator/=(const value_type& v)
        requires(!std::is_const_v<T>)
    {
        record(false);
        record(true);
        *p_ /= v;
        return *this;
    }

private:
    void record(bool is_write) const;

    T* p_;
    group_checker* chk_;
    index_type region_;
    size_type offset_;
};

/// Per-(simulator-)thread checker the queue attaches to the arena and the
/// group context. Tracks one work-group at a time: a registry of SLM and
/// spill allocations with per-byte shadow state, the read/write sets of
/// the current barrier phase, and the lane the executing code runs as.
/// All violations throw check_violation (fail-fast), which run_batch
/// propagates to the host like any kernel error.
class group_checker {
public:
    void configure(check_level level, lane_order order, unsigned seed)
    {
        level_ = level;
        order_ = order;
        seed_ = seed;
    }

    void begin_launch(const char* kernel_label) { kernel_ = kernel_label; }

    /// Resets all per-group state; called once per work-group.
    void begin_group(index_type group_id, index_type work_group_size);

    /// Flushes the trailing (post-last-barrier) phase of the group.
    void end_group() { finish_phase(); }

    bool active() const { return level_ != check_level::none; }

    /// Registers a fresh SLM allocation (all bytes undefined). Returns the
    /// tag the owning span carries.
    span_tag register_slm_region(size_type bytes);

    /// Registers a spill slot in global scratch (all bytes undefined: the
    /// scratch pool never clears its blocks, so a read-before-write would
    /// see a previous launch's data).
    span_tag register_global_region(size_type bytes);

    /// slm_arena::reset(): every live SLM region becomes dead; any later
    /// access through a span of it is a use-after-reset.
    void on_slm_reset();

    /// Element access through a checked_ref.
    void on_access(index_type region, size_type offset, size_type bytes,
                   bool is_write);

    /// Out-of-range index `i` on a span of length `len` whose first
    /// element sits `span_offset` bytes into `region`.
    [[noreturn]] void fail_out_of_bounds(index_type region,
                                         size_type span_offset, index_type i,
                                         index_type len,
                                         size_type elem_bytes);

    /// Work-group barrier: must be uniform; ends the current phase.
    void on_barrier()
    {
        require_uniform("group::barrier()");
        finish_phase();
    }

    /// Collectives (reduce_sum) bracket their combine loop: entry asserts
    /// uniformity and ends the phase (the collective's own barrier), the
    /// combine attributes each value_of(item) to its hardware lane, exit
    /// restores uniform context and ends the phase again.
    void begin_collective(const char* what)
    {
        require_uniform(what);
        finish_phase();
    }
    void set_lane(index_type lane) { lane_ = lane; }
    void end_collective()
    {
        lane_ = uniform_lane;
        finish_phase();
    }

    /// Broadcasts only require uniform invocation (register move + SLM
    /// bounce; no per-lane memory is touched by the simulator).
    void require_uniform(const char* what);

    /// Runs one work-item loop: `f(item)` for item in [0, n), grid-striding
    /// lanes of the work-group. Models SYCL's hierarchical form — an
    /// implicit barrier on entry (uniform code before the loop is its own
    /// phase), the lane loop in the adversary-selected order, and the exit
    /// barrier issued by the caller right after. Within a lane, items stay
    /// ascending (a single work-item executes its grid-stride iterations
    /// in program order even on hardware).
    template <typename F>
    void run_lane_loop(index_type work_group_size, index_type n, F&& f)
    {
        require_uniform("for_each_item/for_items");
        finish_phase();
        prepare_lane_order(work_group_size);
        for (index_type k = 0; k < work_group_size; ++k) {
            lane_ = lane_order_buf_[static_cast<std::size_t>(k)];
            for (index_type item = lane_; item < n;
                 item += work_group_size) {
                f(item);
            }
        }
        lane_ = uniform_lane;
    }

private:
    struct region_info {
        size_type bytes = 0;
        bool is_slm = false;
        bool dead = false;
        /// One byte of shadow per tracked byte, 1 = defined; every region
        /// starts undefined.
        std::vector<unsigned char> shadow;
    };

    struct access_record {
        index_type region = -1;
        size_type begin = 0;
        size_type end = 0;
        index_type lane = uniform_lane;
    };

    [[noreturn]] void throw_violation(diagnostic kind, index_type lane_a,
                                      index_type lane_b, size_type byte_begin,
                                      size_type byte_end,
                                      std::string detail) const;

    /// End-of-phase hazard scan: sorts the write set, reports any
    /// cross-lane write-write or read-write overlap, clears both sets.
    void finish_phase();
    void scan_conflicts();

    /// Fills lane_order_buf_ with the permutation of [0, work_group_size)
    /// this phase executes: ascending below check_level::adversary, else
    /// the configured order (shuffled draws a per-group, per-phase
    /// permutation from the seed).
    void prepare_lane_order(index_type work_group_size);

    check_level level_ = check_level::none;
    lane_order order_ = lane_order::ascending;
    unsigned seed_ = 0;
    const char* kernel_ = "kernel";
    index_type group_ = -1;
    index_type wg_size_ = 0;
    index_type phase_ = 0;
    index_type lane_ = uniform_lane;
    std::vector<region_info> regions_;
    std::vector<access_record> reads_;
    std::vector<access_record> writes_;
    std::vector<index_type> lane_order_buf_;
};

template <typename T>
void checked_ref<T>::record(bool is_write) const
{
    if (chk_ != nullptr) {
        chk_->on_access(region_, offset_, sizeof(value_type), is_write);
    }
}

/// Lane-order adversary harness: runs `produce(lane_order)` under ascending
/// and under `adversary` order and requires bit-identical outputs. The
/// caller's `produce` must configure its queue policy with the given order
/// (and check_level::adversary) and return the flattened solution values.
/// A mismatch throws a lane_order_dependence violation locating the first
/// differing element.
template <typename Produce>
void verify_lane_order_independent(const char* kernel, Produce&& produce,
                                   lane_order adversary)
{
    const std::vector<double> base = produce(lane_order::ascending);
    const std::vector<double> other = produce(adversary);
    violation v;
    v.kind = diagnostic::lane_order_dependence;
    v.kernel = kernel;
    if (base.size() != other.size()) {
        v.detail = "output size differs between ascending and " +
                   xpu::to_string(adversary) + " lane order";
        throw check_violation(std::move(v));
    }
    for (std::size_t i = 0; i < base.size(); ++i) {
        // Bit comparison, not ==: NaNs must compare equal to themselves
        // and signed zeros must not.
        static_assert(sizeof(double) == sizeof(std::uint64_t));
        std::uint64_t a = 0;
        std::uint64_t b = 0;
        __builtin_memcpy(&a, &base[i], sizeof a);
        __builtin_memcpy(&b, &other[i], sizeof b);
        if (a != b) {
            v.byte_begin = static_cast<size_type>(i * sizeof(double));
            v.byte_end = v.byte_begin + sizeof(double);
            v.detail = "element " + std::to_string(i) +
                       " differs between ascending and " +
                       xpu::to_string(adversary) + " lane order";
            throw check_violation(std::move(v));
        }
    }
}

}  // namespace batchlin::xpu::check

#endif  // BATCHLIN_XPU_CHECK
