// Batched kernel launch queue.
//
// `queue::run_batch` is the simulator's equivalent of submitting one fused
// ND-range kernel with `num_groups` work-groups (one per batch entry,
// §3.2/§3.4). Work-groups execute concurrently across a team of OpenMP
// threads sized to the launch (one per 16 groups, at most
// `omp_get_max_threads()`; a team of one runs on the calling thread); each
// team thread owns a private SLM arena sized to the device budget and a
// private counter block, merged after the launch so results are
// independent of the host thread count.
//
// Launch resources are pooled: the per-thread arenas, the per-thread
// counter blocks, and the spill scratch backing all live on the queue and
// are reused across launches, so a steady-state `run_batch` performs no
// heap allocation. The paper's argument about amortizing per-launch
// overhead (§3.4) applies to the simulator host just as it does to the
// device runtime.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/math.hpp"
#include "xpu/arena.hpp"
#include "xpu/counters.hpp"
#include "xpu/graph.hpp"
#include "xpu/group.hpp"
#include "xpu/policy.hpp"

namespace batchlin::xpu {

/// Half-open range of batch entries assigned to one stack under explicit
/// scaling (§2.2): entries [begin, end).
struct batch_range {
    index_type begin = 0;
    index_type end = 0;

    index_type size() const { return end - begin; }
};

/// Splits `num_items` across `num_stacks` stacks as the PVC driver does under
/// implicit scaling: contiguous, near-equal chunks.
batch_range stack_partition(index_type num_items, index_type num_stacks,
                            index_type stack_id);

/// Work-groups a team thread takes at a time from a launch's parallel
/// driver.
inline constexpr index_type launch_chunk = 16;

/// Host threads a launch of `num_groups` groups runs on: one per
/// `launch_chunk` groups, at most `omp_get_max_threads()`. A thread beyond
/// that count could get no work. A launch of one chunk or less makes no
/// OpenMP runtime call.
inline int launch_team(index_type num_groups)
{
    const index_type chunks = (num_groups + launch_chunk - 1) / launch_chunk;
    if (chunks <= 1) {
        return 1;
    }
    return static_cast<int>(
        std::min<index_type>(chunks, omp_get_max_threads()));
}

/// Profiling record of one kernel launch — the simulator's analogue of a
/// SYCL event with profiling info enabled.
struct launch_record {
    counters stats;
    double wall_seconds = 0.0;
    index_type num_groups = 0;
    index_type work_group_size = 0;
    index_type sub_group_size = 0;
};

/// Grow-only scratch backing reused across the launches of one queue.
/// The solvers carve the spilled (global-memory) workspace of each launch
/// from here, keyed by the required byte size: the buffer grows when a
/// launch needs more and is reused as-is otherwise, so repeated solves of
/// the same shape stop paying a heap allocation per solve. Blocks are not
/// cleared: every kernel writes each spilled element before reading it
/// (xpu::check proves this, see DESIGN.md §8).
class scratch_pool {
public:
    /// Returns a block of at least `bytes` bytes, aligned for any
    /// fundamental type, carrying whatever the previous acquisition left
    /// behind (growth value-initializes the new tail). Valid until the
    /// next `acquire` on this pool.
    std::byte* acquire(size_type bytes);

    size_type capacity() const
    {
        return static_cast<size_type>(storage_.size());
    }

private:
    std::vector<std::byte> storage_;
};

/// In-order queue bound to one execution policy (device + programming model).
///
/// Threading contract: a queue is NOT thread-safe. `run_batch` parallelizes
/// internally, but the launch resources it pools (arenas, counter blocks,
/// spill scratch, statistics) belong to one launch at a time, so two host
/// threads must never call `run_batch` on the same queue concurrently —
/// give each thread its own queue instead (`serve::solve_service` owns one
/// queue per worker for exactly this reason). Debug builds detect and
/// reject concurrent launches; release builds do not check.
class queue {
public:
    explicit queue(exec_policy policy) : policy_(std::move(policy)) {}

    const exec_policy& policy() const { return policy_; }

    /// Cumulative statistics of every launch since the last reset.
    const counters& stats() const { return stats_; }
    void reset_stats() { stats_ = counters{}; }

    /// Launches one fused batched kernel: `body(group&)` runs once per
    /// work-group, with work-group `g` solving batch entry `first_group +
    /// g.id()`. This is the single-kernel strategy of §3.4 — exactly one
    /// launch is charged regardless of batch size. `kernel_label` names the
    /// kernel in sanitizer reports (xpu::check) and costs nothing otherwise.
    template <typename KernelBody>
    void run_batch(index_type num_groups, index_type work_group_size,
                   index_type sub_group_size, KernelBody&& body,
                   index_type first_group = 0,
                   const char* kernel_label = "kernel")
    {
        BATCHLIN_ENSURE_MSG(num_groups >= 0, "negative group count");
        BATCHLIN_ENSURE_MSG(work_group_size > 0 &&
                                work_group_size <= policy_.max_work_group_size,
                            "work-group size outside device limits");
        BATCHLIN_ENSURE_MSG(work_group_size % sub_group_size == 0,
                            "SYCL requires the work-group size to be "
                            "divisible by the sub-group size");
        BATCHLIN_ENSURE_MSG(policy_.supports_sub_group(sub_group_size),
                            "sub-group size not supported by this device");
#ifndef BATCHLIN_XPU_CHECK
        // The sanitizer must never silently no-op: without the checked
        // build, a non-none level is a configuration error, not a hint.
        BATCHLIN_ENSURE_MSG(policy_.check_level == check_level::none,
                            "exec_policy::check_level requires a build "
                            "configured with -DBATCHLIN_XPU_CHECK=ON");
        (void)kernel_label;
#endif

        if (recorder_ != nullptr) {
            // Recording: capture the validated launch as a graph node.
            // Nothing executes, the launch counter does not advance, and
            // no fault fires — the submission happens at replay time.
            recorder_->add(graph_node{
                num_groups, work_group_size, sub_group_size, first_group,
                kernel_label,
                std::function<void(group&)>(std::forward<KernelBody>(body))});
            return;
        }

        run_batch_impl(num_groups, work_group_size, sub_group_size,
                       std::forward<KernelBody>(body), first_group,
                       kernel_label, policy_.emulated_launch_us);
    }

    /// Executes the first `groups` work-groups of one recorded node at
    /// `emulated_us` of host launch cost, through the same fault dispatch,
    /// launch counter and statistics as eager submissions.
    void run_recorded(const graph_node& node, index_type groups,
                      double emulated_us);

    /// Charges `us` microseconds of host-side cost (busy-wait, like the
    /// emulated launch overhead). Used for one-time graph record cost.
    static void charge_host_cost(double us)
    {
        if (us > 0.0) {
            emulate_launch_cost(us);
        }
    }

    /// True while a `command_graph` is recording this queue's submissions.
    bool recording() const { return recorder_ != nullptr; }

private:
    /// The eager launch path shared by `run_batch` and graph replay:
    /// fault dispatch, counter advance, group execution, statistics.
    template <typename KernelBody>
    void run_batch_impl(index_type num_groups, index_type work_group_size,
                        index_type sub_group_size, KernelBody&& body,
                        index_type first_group, const char* kernel_label,
                        double emulated_us)
    {
        // Fault dispatch: the launch counter keys scheduled events, so it
        // advances for every submission — including the ones that fail.
        // An empty plan costs exactly this one branch.
        const std::uint64_t launch_id = launches_submitted_++;
        std::vector<const fault_event*> launch_faults;
        if (!policy_.faults.empty()) {
            for (const fault_event& ev : policy_.faults.events) {
                if (ev.kind == fault_kind::device_lost) {
                    // Sticky interval [launch, revive): the device stays
                    // dead across retries, which only the counter itself
                    // (spent launches, e.g. serve-side probes) escapes.
                    if (ev.launch <= launch_id &&
                        (ev.revive == 0 || launch_id < ev.revive)) {
                        throw device_error(
                            __FILE__, __LINE__,
                            "injected fault: device lost "
                            "(xpu::fault_kind::device_lost)");
                    }
                    continue;
                }
                if (ev.launch != launch_id) {
                    continue;
                }
                if (ev.kind == fault_kind::hang) {
                    // Bounded wedge: block long enough to trip a watchdog
                    // whose timeout is below hang_us, then fail the launch
                    // like the runtime timing out a lost kernel.
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(ev.hang_us));
                    throw device_error(
                        __FILE__, __LINE__,
                        "injected fault: kernel hang timed out "
                        "(xpu::fault_kind::hang)");
                }
                if (ev.kind == fault_kind::launch_fail) {
                    throw device_error(
                        __FILE__, __LINE__,
                        "injected fault: kernel launch rejected "
                        "(xpu::fault_kind::launch_fail)");
                }
                launch_faults.push_back(&ev);
            }
        }

#ifndef NDEBUG
        // Launch resources are owned by one launch at a time (see the
        // class comment); catch concurrent or reentrant launches early.
        BATCHLIN_ENSURE_MSG(!launch_active_.exchange(true),
                            "concurrent run_batch calls on one xpu::queue "
                            "are not allowed; use one queue per thread");
        struct active_reset {
            std::atomic<bool>* flag;
            ~active_reset() { flag->store(false); }
        } launch_guard{&launch_active_};
#endif

        counters launch_stats;
        launch_stats.kernel_launches = 1;
        launch_stats.groups_launched = num_groups;

        // Event clocks are only read with profiling enabled (the SYCL
        // `enable_profiling` property costs nothing when off).
        const double start_seconds = profiling_ ? now_seconds() : 0.0;
        const int team = launch_team(num_groups);
        prepare_launch(team);

        // The per-group sequence both drivers below run: group `g` on team
        // thread `tid`'s pooled arena and counter block.
        const auto run_group = [&](auto& kernel, int tid, index_type g) {
            slm_arena& arena = arena_pool_[tid];
            arena.reset();
            const index_type id = first_group + g;
            group ctx(id, work_group_size, sub_group_size, arena,
                      thread_stats_[tid]);
            if (!launch_faults.empty()) {
                arm_group_faults(launch_faults, id, arena, ctx,
                                 policy_.faults.seed);
            }
#ifdef BATCHLIN_XPU_CHECK
            check::group_checker* chk = arena.checker();
            if (chk != nullptr) {
                chk->begin_group(id, work_group_size);
                ctx.set_checker(chk);
            }
#endif
            kernel(ctx);
#ifdef BATCHLIN_XPU_CHECK
            if (chk != nullptr) {
                chk->end_group();
            }
#endif
            if (!launch_faults.empty()) {
                arena.arm_alloc_failure(-1);
            }
        };

        size_type slm_high_water = 0;
        if (team == 1) {
            // A team of one runs on the calling thread with no OpenMP
            // call: the fork/join would cost more than a small launch's
            // kernel work. Errors propagate as they are thrown.
            begin_thread(0, kernel_label);
            for (index_type g = 0; g < num_groups; ++g) {
                run_group(body, 0, g);
            }
            slm_high_water = arena_pool_[0].high_water();
        } else {
            // Exceptions must not escape the parallel region (that would
            // terminate); capture the first one and rethrow on the host
            // side, like a device-side error reported at synchronization.
            std::exception_ptr first_error = nullptr;
            std::atomic<bool> failed{false};

#pragma omp parallel num_threads(team) reduction(max : slm_high_water)
            {
                const int tid = omp_get_thread_num();
                begin_thread(tid, kernel_label);
                // Each thread runs its own copy of the kernel functor, the
                // way a device receives the functor by value. Shared, the
                // closure sits on the launching thread's stack, which that
                // thread keeps writing while it runs groups itself, and
                // every other thread's per-iteration reads of the captured
                // operands (criterion, launch config) then contend for
                // whichever cache line the stack layout happens to share.
                // Type-erased bodies (graph replay) live on the heap and
                // are not copied: that would allocate per launch.
                std::conditional_t<
                    std::is_trivially_copyable_v<std::decay_t<KernelBody>>,
                    std::decay_t<KernelBody>, KernelBody&>
                    thread_body = body;
#pragma omp for schedule(dynamic, launch_chunk)
                for (index_type g = 0; g < num_groups; ++g) {
                    if (failed.load(std::memory_order_relaxed)) {
                        continue;
                    }
                    try {
                        run_group(thread_body, tid, g);
                    } catch (...) {
#pragma omp critical(batchlin_queue_error)
                        {
                            if (!first_error) {
                                first_error = std::current_exception();
                            }
                        }
                        failed.store(true, std::memory_order_relaxed);
                    }
                }
                slm_high_water = arena_pool_[tid].high_water();
            }
            if (first_error) {
                std::rethrow_exception(first_error);
            }
        }

        for (int t = 0; t < team; ++t) {
            launch_stats += thread_stats_[t];
        }
        finish_launch(launch_stats, slm_high_water, start_seconds,
                      num_groups, work_group_size, sub_group_size,
                      emulated_us);
    }

public:
    /// Statistics of the most recent launch only.
    const counters& last_launch_stats() const { return last_launch_; }

    /// Event profiling: when enabled, every launch appends a record (the
    /// SYCL `enable_profiling` property analogue). Off by default. The
    /// history is a bounded ring: only the most recent
    /// `launch_history_capacity()` records are kept, so a long-lived
    /// profiled queue (a serve:: worker) has a fixed memory footprint.
    void enable_profiling(bool on = true) { profiling_ = on; }
    bool profiling_enabled() const { return profiling_; }

    /// Chronological snapshot (oldest first) of the retained records.
    std::vector<launch_record> launch_history() const;
    void clear_launch_history()
    {
        history_.clear();
        history_head_ = 0;
        history_dropped_ = 0;
    }

    /// Resizes the history ring; must be positive. Shrinking keeps the
    /// most recent records. Default: 4096 records.
    void set_launch_history_capacity(size_type capacity);
    size_type launch_history_capacity() const { return history_capacity_; }
    /// Launches recorded and since dropped because the ring was full.
    size_type launch_history_dropped() const { return history_dropped_; }

    /// Spill-workspace scratch reused across this queue's launches.
    scratch_pool& scratch() { return scratch_; }

    /// 0-based count of `run_batch` calls submitted on this queue, failed
    /// launches included — the key `fault_event::launch` matches against.
    std::uint64_t launches_submitted() const { return launches_submitted_; }

    /// Per-thread launch resources currently pooled (for tests/telemetry).
    index_type pooled_threads() const
    {
        return static_cast<index_type>(arena_pool_.size());
    }

private:
    /// Arms per-group fault state for the events scheduled on this launch:
    /// alloc_fail trips the arena's allocation countdown, poison arms the
    /// group context. Poison strikes are confined to the group's own memory
    /// (its SLM arena, or the spill slice the workspace binder registers
    /// via `group::note_global_region`), so concurrent groups never race.
    static void arm_group_faults(
        const std::vector<const fault_event*>& events,
        index_type global_group, slm_arena& arena, group& ctx, unsigned seed)
    {
        for (const fault_event* ev : events) {
            if (ev->group != global_group) {
                continue;
            }
            if (ev->kind == fault_kind::alloc_fail) {
                arena.arm_alloc_failure(ev->phase);
            } else {
                ctx.arm_fault(ev, nullptr, 0, seed);
            }
        }
    }

    static double now_seconds();

    /// Spins for `us` microseconds of wall time. A busy-wait, not a sleep:
    /// a synchronous SYCL submit burns the submitting thread's CPU in the
    /// runtime, and emulating it must do the same so the cost shows up in
    /// end-to-end throughput measurements.
    static void emulate_launch_cost(double us);

    /// Ensures per-thread arenas and counter blocks exist for a team of
    /// `num_threads` threads and zeroes the counter blocks. Allocates only
    /// when a team outgrew the pool; steady state is alloc-free.
    void prepare_launch(int num_threads);

    /// Commits a finished launch: footprint, cumulative and last-launch
    /// stats, and the profiling record when enabled.
    void finish_launch(counters& launch_stats, size_type slm_high_water,
                       double start_seconds, index_type num_groups,
                       index_type work_group_size,
                       index_type sub_group_size, double emulated_us)
    {
        if (emulated_us > 0.0) {
            emulate_launch_cost(emulated_us);
        }
        launch_stats.slm_footprint_bytes = slm_high_water;
        stats_ += launch_stats;
        last_launch_ = launch_stats;
        if (profiling_) {
            record_launch({launch_stats, now_seconds() - start_seconds,
                           num_groups, work_group_size, sub_group_size});
        }
    }

    /// Appends to the history ring, overwriting the oldest record when
    /// the ring is full.
    void record_launch(launch_record record);

    /// Readies team thread `tid`'s pooled arena for this launch and, in
    /// checked builds, binds the thread's pooled checker to it — or
    /// detaches it when the policy runs unchecked.
    void begin_thread(int tid, const char* kernel_label)
    {
        slm_arena& arena = arena_pool_[tid];
        arena.begin_launch();
#ifdef BATCHLIN_XPU_CHECK
        check::group_checker* chk = nullptr;
        if (policy_.check_level != check_level::none) {
            chk = &checker_pool_[static_cast<std::size_t>(tid)];
            chk->configure(policy_.check_level, policy_.lane_order,
                           policy_.lane_order_seed);
            chk->begin_launch(kernel_label);
        }
        arena.set_checker(chk);
#else
        (void)kernel_label;
#endif
    }

    friend class command_graph;

    exec_policy policy_;
    command_graph* recorder_ = nullptr;
    counters stats_;
    counters last_launch_;
    bool profiling_ = false;
    /// Ring buffer of the most recent launches: chronological order is
    /// [head, end) then [0, head) once the ring has wrapped.
    std::vector<launch_record> history_;
    size_type history_capacity_ = 4096;
    size_type history_head_ = 0;
    size_type history_dropped_ = 0;
    std::vector<slm_arena> arena_pool_;
    std::vector<counters> thread_stats_;
    scratch_pool scratch_;
    std::uint64_t launches_submitted_ = 0;
#ifdef BATCHLIN_XPU_CHECK
    std::vector<check::group_checker> checker_pool_;
#endif
#ifndef NDEBUG
    std::atomic<bool> launch_active_{false};
#endif
};

/// Builds a per-stack queue for explicit scaling: the same device policy
/// restricted to a single stack. Counters start fresh.
queue make_stack_queue(const queue& parent);

}  // namespace batchlin::xpu
