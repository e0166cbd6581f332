// Unit tests for the SYCL-like execution-model simulator: policies, SLM
#include <algorithm>
// arena, group collectives and counters, queue launches, stack partitions.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "util/error.hpp"
#include "xpu/arena.hpp"
#include "xpu/group.hpp"
#include "xpu/policy.hpp"
#include "xpu/queue.hpp"
#include "solver/dispatch.hpp"
#include "workload/stencil.hpp"

namespace bl = batchlin;
using namespace batchlin::xpu;
using bl::index_type;

TEST(Policy, SyclSupportsBothSubGroupSizes)
{
    const exec_policy p = make_sycl_policy();
    EXPECT_TRUE(p.supports_sub_group(16));
    EXPECT_TRUE(p.supports_sub_group(32));
    EXPECT_FALSE(p.supports_sub_group(8));
    EXPECT_TRUE(p.has_group_reduction);
    EXPECT_EQ(p.model, prog_model::sycl);
}

TEST(Policy, CudaHasOnlyWarp32AndNoGroupReduction)
{
    const exec_policy p = make_cuda_policy(192 * 1024);
    EXPECT_FALSE(p.supports_sub_group(16));
    EXPECT_TRUE(p.supports_sub_group(32));
    EXPECT_FALSE(p.has_group_reduction);
    EXPECT_EQ(p.model, prog_model::cuda);
}

TEST(Policy, TwoStackSyclPolicy)
{
    EXPECT_EQ(make_sycl_policy(2).num_stacks, 2);
    EXPECT_THROW(make_sycl_policy(3), bl::error);
}

TEST(Arena, BumpAllocationAndReset)
{
    slm_arena arena(1024);
    auto a = arena.alloc<double>(16);
    EXPECT_EQ(a.len, 16);
    EXPECT_EQ(a.space, mem_space::slm);
    EXPECT_EQ(arena.used(), 128);
    auto b = arena.alloc<double>(32);
    EXPECT_NE(a.data, b.data);
    EXPECT_EQ(arena.used(), 128 + 256);
    arena.reset();
    EXPECT_EQ(arena.used(), 0);
    EXPECT_EQ(arena.high_water(), 128 + 256);
}

TEST(Arena, OverflowThrows)
{
    slm_arena arena(64);
    arena.alloc<double>(8);
    EXPECT_THROW(arena.alloc<double>(1), bl::error);
}

TEST(Arena, AlignmentRespected)
{
    slm_arena arena(1024);
    arena.alloc<char>(3);
    auto d = arena.alloc<double>(1);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data) % alignof(double),
              0u);
}

namespace {

/// Runs `body` in a standalone single group for collective tests.
template <typename Body>
counters run_single_group(index_type group_size, index_type sub_group_size,
                          Body&& body)
{
    counters stats;
    slm_arena arena(1 << 20);
    group g(0, group_size, sub_group_size, arena, stats);
    body(g);
    return stats;
}

}  // namespace

TEST(Group, ForItemsCoversRangeAndBarriers)
{
    std::vector<int> hits(100, 0);
    const counters stats =
        run_single_group(32, 16, [&](group& g) {
            g.for_items(100, [&](index_type i) { ++hits[i]; });
        });
    for (int h : hits) {
        EXPECT_EQ(h, 1);
    }
    EXPECT_EQ(stats.group_barriers, 1);
}

TEST(Group, ReduceSumMatchesSerialSumGroupPath)
{
    std::vector<double> data(97);
    std::iota(data.begin(), data.end(), 1.0);
    const double expect = 97.0 * 98.0 / 2.0;
    run_single_group(112, 16, [&](group& g) {
        const double sum = g.reduce_sum<double>(
            97, [&](index_type i) { return data[i]; },
            reduce_path::group);
        EXPECT_DOUBLE_EQ(sum, expect);
    });
}

TEST(Group, ReduceSumMatchesSerialSumSubGroupPath)
{
    std::vector<double> data(97);
    std::iota(data.begin(), data.end(), 1.0);
    const double expect = 97.0 * 98.0 / 2.0;
    run_single_group(112, 16, [&](group& g) {
        const double sum = g.reduce_sum<double>(
            97, [&](index_type i) { return data[i]; },
            reduce_path::sub_group);
        EXPECT_DOUBLE_EQ(sum, expect);
    });
}

TEST(Group, GroupReductionChargesSlmTraffic)
{
    const counters stats = run_single_group(64, 16, [&](group& g) {
        (void)g.reduce_sum<double>(
            64, [](index_type) { return 1.0; }, reduce_path::group);
    });
    // Group path stages all work-group lanes through SLM.
    EXPECT_DOUBLE_EQ(stats.slm_bytes, 2.0 * 64 * sizeof(double));
}

TEST(Group, SingleSubGroupReductionIsSlmFree)
{
    const counters stats = run_single_group(16, 16, [&](group& g) {
        (void)g.reduce_sum<double>(
            16, [](index_type) { return 1.0; }, reduce_path::sub_group);
    });
    // One sub-group covers the data: shuffles only, no SLM (§3.2).
    EXPECT_DOUBLE_EQ(stats.slm_bytes, 0.0);
}

TEST(Group, MultiSubGroupReductionPaysOnlyPartialCombine)
{
    const counters stats = run_single_group(64, 16, [&](group& g) {
        (void)g.reduce_sum<double>(
            64, [](index_type) { return 1.0; }, reduce_path::sub_group);
    });
    // 4 sub-groups: only the 4 partials cross SLM.
    EXPECT_DOUBLE_EQ(stats.slm_bytes, 2.0 * 4 * sizeof(double));
    EXPECT_LT(stats.slm_bytes, 2.0 * 64 * sizeof(double));
}

TEST(Group, SubGroupCounts)
{
    run_single_group(48, 16, [&](group& g) {
        EXPECT_EQ(g.size(), 48);
        EXPECT_EQ(g.sub_group_size(), 16);
        EXPECT_EQ(g.num_sub_groups(), 3);
    });
}

TEST(Queue, RunBatchExecutesEveryGroupOnce)
{
    queue q(make_sycl_policy());
    std::vector<int> visits(1000, 0);
    q.run_batch(1000, 32, 16, [&](group& g) { ++visits[g.id()]; });
    for (int v : visits) {
        EXPECT_EQ(v, 1);
    }
    EXPECT_EQ(q.stats().kernel_launches, 1);
    EXPECT_EQ(q.stats().groups_launched, 1000);
}

TEST(Queue, FirstGroupOffsetsIds)
{
    queue q(make_sycl_policy());
    std::vector<bl::index_type> ids(10, -1);
    q.run_batch(
        10, 16, 16, [&](group& g) { ids[g.id() - 50] = g.id(); }, 50);
    EXPECT_EQ(*std::min_element(ids.begin(), ids.end()), 50);
    EXPECT_EQ(*std::max_element(ids.begin(), ids.end()), 59);
}

TEST(Queue, RejectsInvalidLaunchConfigurations)
{
    queue q(make_sycl_policy());
    // Work-group size must be divisible by the sub-group size (SYCL rule).
    EXPECT_THROW(q.run_batch(1, 40, 16, [](group&) {}), bl::error);
    // Unsupported sub-group size.
    EXPECT_THROW(q.run_batch(1, 32, 8, [](group&) {}), bl::error);
    // Over the device maximum.
    EXPECT_THROW(q.run_batch(1, 4096, 16, [](group&) {}), bl::error);
}

TEST(Queue, CountersAccumulateAcrossLaunchesAndReset)
{
    queue q(make_sycl_policy());
    q.run_batch(4, 16, 16, [](group& g) { g.stats().flops += 10; });
    q.run_batch(4, 16, 16, [](group& g) { g.stats().flops += 10; });
    EXPECT_EQ(q.stats().kernel_launches, 2);
    EXPECT_DOUBLE_EQ(q.stats().flops, 80.0);
    EXPECT_DOUBLE_EQ(q.last_launch_stats().flops, 40.0);
    q.reset_stats();
    EXPECT_EQ(q.stats().kernel_launches, 0);
}

TEST(Queue, SlmFootprintTracksHighWater)
{
    queue q(make_sycl_policy());
    q.run_batch(8, 16, 16,
                [](group& g) { (void)g.slm().alloc<double>(100); });
    EXPECT_EQ(q.last_launch_stats().slm_footprint_bytes,
              static_cast<bl::size_type>(100 * sizeof(double)));
}

TEST(Queue, DeterministicCountersRegardlessOfSchedule)
{
    auto run = [] {
        queue q(make_sycl_policy());
        q.run_batch(333, 32, 16, [](group& g) {
            g.stats().flops += static_cast<double>(g.id() % 7);
            g.stats().slm_bytes += 8.0;
        });
        return q.stats();
    };
    const counters a = run();
    const counters b = run();
    EXPECT_DOUBLE_EQ(a.flops, b.flops);
    EXPECT_DOUBLE_EQ(a.slm_bytes, b.slm_bytes);
}

namespace {

/// Runs one batched BiCGSTAB solve under `num_threads` host threads and
/// returns the solution values plus the cumulative queue counters.
std::pair<std::vector<double>, counters> solve_with_threads(int num_threads)
{
    const int saved = omp_get_max_threads();
    omp_set_num_threads(num_threads);
    queue q(make_sycl_policy());
    const bl::solver::batch_matrix<double> a(
        bl::work::stencil_3pt<double>(24, 24, 5));
    const auto b = bl::work::random_rhs<double>(24, 24, 11);
    bl::mat::batch_dense<double> x(24, 24, 1);
    x.fill(0.0);
    bl::solver::solve_options opts;
    opts.solver = bl::solver::solver_type::bicgstab;
    opts.preconditioner = bl::precond::type::jacobi;
    opts.criterion = bl::stop::relative(1e-8, 60);
    (void)bl::solver::solve<double>(q, a, b, x, opts);
    omp_set_num_threads(saved);
    return {x.values(), q.stats()};
}

}  // namespace

TEST(Queue, SolveBitIdenticalAcrossHostThreadCounts)
{
    // The per-thread arena pool and counter merge must keep results and
    // cumulative counters independent of the host thread count: a team of
    // one on the calling thread and the parallel driver (24 groups run a
    // team of 2 at 4 threads) have to agree bit for bit.
    const auto [x1, c1] = solve_with_threads(1);
    const auto [x4, c4] = solve_with_threads(4);
    EXPECT_EQ(x1, x4);
    EXPECT_EQ(c1.kernel_launches, c4.kernel_launches);
    EXPECT_EQ(c1.groups_launched, c4.groups_launched);
    EXPECT_EQ(c1.group_barriers, c4.group_barriers);
    EXPECT_EQ(c1.slm_footprint_bytes, c4.slm_footprint_bytes);
    EXPECT_DOUBLE_EQ(c1.flops, c4.flops);
    EXPECT_DOUBLE_EQ(c1.slm_bytes, c4.slm_bytes);
    EXPECT_DOUBLE_EQ(c1.global_read_bytes, c4.global_read_bytes);
    EXPECT_DOUBLE_EQ(c1.global_write_bytes, c4.global_write_bytes);
    EXPECT_DOUBLE_EQ(c1.constant_read_bytes, c4.constant_read_bytes);
}

TEST(Queue, LaunchTeamCoversOnlyItsGroupChunks)
{
    // A launch forks one host thread per 16-group chunk, at most
    // omp_get_max_threads(): a thread beyond that could get no work.
    const int saved = omp_get_max_threads();
    omp_set_num_threads(4);
    queue q(make_sycl_policy());
    q.run_batch(20, 16, 16, [](group&) {});
    EXPECT_EQ(q.pooled_threads(), 2);
    q.run_batch(100, 16, 16, [](group&) {});
    EXPECT_EQ(q.pooled_threads(), 4);
    queue single(make_sycl_policy());
    single.run_batch(1, 16, 16, [](group&) {});
    EXPECT_EQ(single.pooled_threads(), 1);
    omp_set_num_threads(saved);
}

TEST(Queue, RepeatedSolvesOnOneQueueAreBitIdentical)
{
    // Pooled arenas, pooled counter blocks, and the reused spill scratch
    // must not leak state between solves: every repetition of the same
    // solve reports the same launch counters.
    queue q(make_sycl_policy());
    const bl::solver::batch_matrix<double> a(
        bl::work::stencil_3pt<double>(8, 16, 3));
    const auto b = bl::work::random_rhs<double>(8, 16, 7);
    bl::solver::solve_options opts;
    opts.solver = bl::solver::solver_type::cg;
    opts.preconditioner = bl::precond::type::jacobi;
    opts.criterion = bl::stop::relative(1e-8, 50);

    bl::mat::batch_dense<double> x(8, 16, 1);
    x.fill(0.0);
    (void)bl::solver::solve<double>(q, a, b, x, opts);
    const counters first = q.last_launch_stats();
    const std::vector<double> x_first = x.values();
    for (int rep = 0; rep < 3; ++rep) {
        x.fill(0.0);
        (void)bl::solver::solve<double>(q, a, b, x, opts);
        const counters& again = q.last_launch_stats();
        EXPECT_DOUBLE_EQ(first.flops, again.flops);
        EXPECT_DOUBLE_EQ(first.slm_bytes, again.slm_bytes);
        EXPECT_EQ(first.group_barriers, again.group_barriers);
        EXPECT_EQ(first.slm_footprint_bytes, again.slm_footprint_bytes);
        EXPECT_EQ(x_first, x.values());
    }
    EXPECT_GE(q.pooled_threads(), 1);
}

TEST(Queue, PooledArenaFootprintResetsPerLaunch)
{
    // slm_footprint_bytes is a per-launch high water mark; a reused arena
    // must not carry the previous launch's (larger) footprint forward.
    queue q(make_sycl_policy());
    q.run_batch(4, 16, 16,
                [](group& g) { (void)g.slm().alloc<double>(512); });
    EXPECT_EQ(q.last_launch_stats().slm_footprint_bytes,
              static_cast<bl::size_type>(512 * sizeof(double)));
    q.run_batch(4, 16, 16,
                [](group& g) { (void)g.slm().alloc<double>(16); });
    EXPECT_EQ(q.last_launch_stats().slm_footprint_bytes,
              static_cast<bl::size_type>(16 * sizeof(double)));
}

TEST(StackPartition, SplitsEvenly)
{
    const batch_range r0 = stack_partition(100, 2, 0);
    const batch_range r1 = stack_partition(100, 2, 1);
    EXPECT_EQ(r0.begin, 0);
    EXPECT_EQ(r0.end, 50);
    EXPECT_EQ(r1.begin, 50);
    EXPECT_EQ(r1.end, 100);
}

TEST(StackPartition, HandlesRemainder)
{
    const batch_range r0 = stack_partition(101, 2, 0);
    const batch_range r1 = stack_partition(101, 2, 1);
    EXPECT_EQ(r0.size(), 51);
    EXPECT_EQ(r1.size(), 50);
    EXPECT_EQ(r0.end, r1.begin);
}

TEST(StackPartition, RejectsBadIds)
{
    EXPECT_THROW(stack_partition(10, 2, 2), bl::error);
    EXPECT_THROW(stack_partition(10, 0, 0), bl::error);
}

TEST(StackPartition, ZeroItemsYieldEmptyValidRanges)
{
    for (index_type s = 0; s < 4; ++s) {
        const batch_range r = stack_partition(0, 4, s);
        EXPECT_EQ(r.begin, 0);
        EXPECT_EQ(r.end, 0);
        EXPECT_EQ(r.size(), 0);
    }
}

TEST(StackPartition, MoreStacksThanItemsLeavesTrailingStacksEmpty)
{
    // 3 items over 8 stacks: the first three stacks get one item each,
    // the rest are valid empty ranges; contiguity and coverage hold.
    index_type covered = 0;
    index_type prev_end = 0;
    for (index_type s = 0; s < 8; ++s) {
        const batch_range r = stack_partition(3, 8, s);
        EXPECT_EQ(r.begin, prev_end);
        EXPECT_GE(r.size(), 0);
        EXPECT_EQ(r.size(), s < 3 ? 1 : 0);
        covered += r.size();
        prev_end = r.end;
    }
    EXPECT_EQ(covered, 3);
    EXPECT_EQ(prev_end, 3);
}

TEST(StackPartition, RemainderSpreadsOverLeadingStacks)
{
    // 10 items over 4 stacks: 3, 3, 2, 2 — the PVC driver's near-equal
    // contiguous chunks, remainder absorbed by the leading stacks.
    const index_type expected[] = {3, 3, 2, 2};
    index_type prev_end = 0;
    for (index_type s = 0; s < 4; ++s) {
        const batch_range r = stack_partition(10, 4, s);
        EXPECT_EQ(r.size(), expected[s]) << "stack " << s;
        EXPECT_EQ(r.begin, prev_end);
        prev_end = r.end;
    }
    EXPECT_EQ(prev_end, 10);
}

TEST(StackQueue, InheritsPolicyWithOneStack)
{
    queue parent(make_sycl_policy(2));
    const queue child = make_stack_queue(parent);
    EXPECT_EQ(child.policy().num_stacks, 1);
    EXPECT_EQ(child.policy().model, prog_model::sycl);
    EXPECT_EQ(child.stats().kernel_launches, 0);
}

TEST(Counters, PlusEqualsAggregates)
{
    counters a;
    a.flops = 10;
    a.slm_footprint_bytes = 100;
    counters b;
    b.flops = 5;
    b.slm_footprint_bytes = 200;
    b.kernel_launches = 1;
    a += b;
    EXPECT_DOUBLE_EQ(a.flops, 15.0);
    EXPECT_EQ(a.slm_footprint_bytes, 200);  // max, not sum
    EXPECT_EQ(a.kernel_launches, 1);
}

TEST(Span, SubspanBoundsChecked)
{
    std::vector<double> buf(10);
    dspan<double> s{buf.data(), 10, mem_space::global};
    auto sub = s.subspan(2, 5);
    EXPECT_EQ(sub.len, 5);
    EXPECT_EQ(sub.data, buf.data() + 2);
    EXPECT_THROW(s.subspan(8, 5), bl::dimension_mismatch);
}

TEST(Queue, KernelExceptionsSurfaceOnTheHost)
{
    // A throw inside a work-group must not terminate the process; the
    // queue rethrows it after the launch, like a device error reported at
    // synchronization.
    queue q(make_sycl_policy());
    EXPECT_THROW(q.run_batch(64, 16, 16,
                             [](group& g) {
                                 if (g.id() == 37) {
                                     BATCHLIN_ENSURE_MSG(false,
                                                         "device fault");
                                 }
                             }),
                 bl::error);
    // The queue stays usable afterwards.
    int ok = 0;
    q.run_batch(4, 16, 16, [&](group&) {
#pragma omp atomic
        ++ok;
    });
    EXPECT_EQ(ok, 4);
}

TEST(Queue, SingularIsaiSystemThrowsInsteadOfCrashing)
{
    // ISAI generation solves a small dense system per row; a singular one
    // must surface as a host-side exception through the fused kernel.
    namespace mat = batchlin::mat;
    namespace solver = batchlin::solver;
    namespace work = batchlin::work;
    auto a = work::stencil_3pt<double>(4, 8, 3);
    // Make item 2's rows 3 and 4 identical => the local ISAI system of
    // those rows becomes singular.
    for (index_type k = a.row_ptrs()[3]; k < a.row_ptrs()[4]; ++k) {
        a.item_values(2)[k] = 0.0;
    }
    const solver::batch_matrix<double> variant = a;
    const auto b = work::random_rhs<double>(4, 8, 4);
    mat::batch_dense<double> x(4, 8, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::cg;
    opts.preconditioner = batchlin::precond::type::isai;
    queue q(make_sycl_policy());
    EXPECT_THROW(solver::solve(q, variant, b, x, opts), bl::error);
}

TEST(Queue, LaunchHistoryIsABoundedRing)
{
    queue q(make_sycl_policy());
    q.enable_profiling();
    q.set_launch_history_capacity(3);
    EXPECT_EQ(q.launch_history_capacity(), 3);
    for (index_type n = 1; n <= 5; ++n) {
        q.run_batch(n, 16, 16, [](group&) {});
    }
    // Only the 3 most recent launches survive, oldest first.
    const auto history = q.launch_history();
    ASSERT_EQ(history.size(), 3u);
    EXPECT_EQ(history[0].num_groups, 3);
    EXPECT_EQ(history[1].num_groups, 4);
    EXPECT_EQ(history[2].num_groups, 5);
    EXPECT_EQ(q.launch_history_dropped(), 2);
    // Shrinking keeps the newest records.
    q.set_launch_history_capacity(2);
    const auto shrunk = q.launch_history();
    ASSERT_EQ(shrunk.size(), 2u);
    EXPECT_EQ(shrunk[0].num_groups, 4);
    EXPECT_EQ(shrunk[1].num_groups, 5);
    q.clear_launch_history();
    EXPECT_TRUE(q.launch_history().empty());
    EXPECT_EQ(q.launch_history_dropped(), 0);
    EXPECT_THROW(q.set_launch_history_capacity(0), bl::error);
}

TEST(Queue, ScratchPoolZeroFillIsOptional)
{
    queue q(make_sycl_policy());
    std::byte* block = q.scratch().acquire(64);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(block[i], std::byte{0}) << i;
    }
    std::memset(block, 0xab, 64);
    // Reacquisition of a fitting block keeps prior contents.
    block = q.scratch().acquire(64);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(block[i], std::byte{0xab}) << i;
    }
    // Growth value-initializes the new tail.
    block = q.scratch().acquire(128);
    for (int i = 64; i < 128; ++i) {
        EXPECT_EQ(block[i], std::byte{0}) << i;
    }
}

TEST(Queue, ScratchPoolBlocksSuitAnyFundamentalAlignment)
{
    // The solvers carve typed workspace slots straight out of the scratch
    // block, so it must be aligned for any fundamental type — including
    // after odd-sized growth steps.
    queue q(make_sycl_policy());
    for (const bl::size_type bytes : {1, 63, 64, 129, 4097}) {
        std::byte* block = q.scratch().acquire(bytes);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(block) %
                      alignof(std::max_align_t),
                  0u)
            << "acquire(" << bytes << ")";
    }
}

#ifndef BATCHLIN_XPU_CHECK
TEST(Queue, CheckLevelRequiresCheckedBuild)
{
    // The sanitizer knob must never silently no-op: asking for a checked
    // launch from an unchecked build is a configuration error.
    exec_policy policy = make_sycl_policy();
    policy.check_level = check_level::hazard;
    queue q(policy);
    EXPECT_THROW(q.run_batch(1, 16, 16, [](group&) {}), bl::error);
}
#endif

#ifndef NDEBUG
TEST(Queue, ConcurrentLaunchesOnOneQueueAreRejectedInDebug)
{
    // The queue documents that launch resources belong to one launch at a
    // time; a reentrant run_batch is the deterministic way to trigger the
    // debug-only guard.
    queue q(make_sycl_policy());
    EXPECT_THROW(q.run_batch(1, 16, 16,
                             [&](group&) {
                                 q.run_batch(1, 16, 16, [](group&) {});
                             }),
                 bl::error);
    // The guard resets; the queue stays usable.
    int ok = 0;
    q.run_batch(2, 16, 16, [&](group&) {
#pragma omp atomic
        ++ok;
    });
    EXPECT_EQ(ok, 2);
}
#endif
