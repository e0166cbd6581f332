// Tests for serve::solve_service and the coalesced-assembly path behind
// it: bit-identical equivalence with solo solves across worker counts and
// batching windows, deadline expiry, admission control (reject and block),
// coalescing behavior, drain/stop semantics, and statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "batchlin/batchlin.hpp"
#include "oracle.hpp"
#include "serve/ring.hpp"

#if defined(__linux__)
#include <dirent.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace bl = batchlin;
namespace mat = batchlin::mat;
namespace solver = batchlin::solver;
namespace serve = batchlin::serve;
namespace work = batchlin::work;
namespace stop = batchlin::stop;
using bl::index_type;
using std::chrono::microseconds;
using std::chrono::milliseconds;

using oracle::cg_opts;
using oracle::make_request;
using oracle::mode_policy;

namespace {

/// Collects every ticket's status on a detached thread and waits at most
/// `limit`: a ticket that never resolves fails the caller instead of
/// hanging it. Empty on timeout.
std::optional<std::vector<serve::request_status>> statuses_within(
    std::vector<serve::solve_service::ticket<double>> tickets,
    std::chrono::seconds limit)
{
    auto done =
        std::make_shared<std::promise<std::vector<serve::request_status>>>();
    std::future<std::vector<serve::request_status>> result =
        done->get_future();
    std::thread([done, tickets = std::move(tickets)]() mutable {
        std::vector<serve::request_status> out;
        for (auto& t : tickets) {
            out.push_back(t.get().status);
        }
        done->set_value(std::move(out));
    }).detach();
    if (result.wait_for(limit) != std::future_status::ready) {
        return std::nullopt;
    }
    return result.get();
}

}  // namespace

TEST(Assemble, CanCoalesceRequiresMatchingPattern)
{
    const solver::batch_matrix<double> a =
        work::stencil_3pt<double>(2, 16, 1);
    const solver::batch_matrix<double> same_pattern =
        work::stencil_3pt<double>(5, 16, 99);
    const solver::batch_matrix<double> other_rows =
        work::stencil_3pt<double>(2, 24, 1);
    const solver::batch_matrix<double> other_pattern =
        work::stencil_banded<double>(2, 16, 2, 1);
    EXPECT_TRUE(solver::can_coalesce(a, same_pattern));
    EXPECT_FALSE(solver::can_coalesce(a, other_rows));
    EXPECT_FALSE(solver::can_coalesce(a, other_pattern));
    EXPECT_FALSE(
        solver::can_coalesce(a, solver::batch_matrix<double>(
                                    mat::to_ell(std::get<mat::batch_csr<
                                                    double>>(a)))));
}

TEST(Assemble, CoalescedSolveMatchesSoloSolveBitwise)
{
    // Three requests over one pattern, different values and sizes.
    std::vector<mat::batch_csr<double>> as;
    as.push_back(work::stencil_3pt<double>(3, 20, 11));
    as.push_back(work::stencil_3pt<double>(1, 20, 12));
    as.push_back(work::stencil_3pt<double>(4, 20, 13));
    const auto opts = cg_opts();

    std::vector<mat::batch_dense<double>> bs;
    std::vector<mat::batch_dense<double>> solo_x;
    std::vector<bl::log::batch_log> solo_logs;
    for (std::size_t i = 0; i < as.size(); ++i) {
        bs.push_back(work::random_rhs<double>(as[i].num_batch_items(), 20,
                                              100 + i));
        solo_x.emplace_back(as[i].num_batch_items(), 20, 1);
        bl::xpu::queue q(bl::xpu::make_sycl_policy());
        const solver::batch_matrix<double> a = as[i];
        solo_logs.push_back(
            solver::solve(q, a, bs[i], solo_x[i], opts).log);
    }

    std::vector<solver::batch_matrix<double>> variants(as.begin(),
                                                       as.end());
    std::vector<mat::batch_dense<double>> fused_x;
    for (const auto& a : as) {
        fused_x.emplace_back(a.num_batch_items(), 20, 1);
    }
    std::vector<solver::assembly_part<double>> parts;
    for (std::size_t i = 0; i < as.size(); ++i) {
        parts.push_back({&variants[i], &bs[i], &fused_x[i]});
    }
    bl::xpu::queue q(bl::xpu::make_sycl_policy());
    const solver::solve_result combined =
        solver::solve_coalesced<double>(q, parts, opts).solves.front();
    EXPECT_EQ(combined.log.num_systems(), 8);

    index_type offset = 0;
    for (std::size_t i = 0; i < as.size(); ++i) {
        const index_type items = as[i].num_batch_items();
        EXPECT_EQ(fused_x[i].values(), solo_x[i].values()) << "part " << i;
        const bl::log::batch_log part =
            solver::split_log(combined.log, offset, items);
        EXPECT_EQ(part.all_iterations(), solo_logs[i].all_iterations());
        EXPECT_EQ(part.all_residual_norms(),
                  solo_logs[i].all_residual_norms());
        offset += items;
    }
}

TEST(Assemble, MixedPatternPartsAreRejected)
{
    const solver::batch_matrix<double> a =
        work::stencil_3pt<double>(2, 16, 1);
    const solver::batch_matrix<double> c =
        work::stencil_3pt<double>(2, 24, 2);
    const auto b16 = work::random_rhs<double>(2, 16, 3);
    const auto b24 = work::random_rhs<double>(2, 24, 4);
    mat::batch_dense<double> x16(2, 16, 1);
    mat::batch_dense<double> x24(2, 24, 1);
    std::vector<solver::assembly_part<double>> parts{{&a, &b16, &x16},
                                                     {&c, &b24, &x24}};
    bl::xpu::queue q(bl::xpu::make_sycl_policy());
    EXPECT_THROW(solver::solve_coalesced<double>(q, parts, cg_opts()),
                 bl::error);
}

/// Byte-wise equality: NaN payloads and signed zeros must match too.
template <typename V>
bool same_bits(const std::vector<V>& lhs, const std::vector<V>& rhs)
{
    return lhs.size() == rhs.size() &&
           std::memcmp(lhs.data(), rhs.data(), lhs.size() * sizeof(V)) == 0;
}

TEST(Record, ReplayBitIdenticalToEagerForEveryTable3Combo)
{
    // Every legal format x preconditioner cell of BATCHLIN_FOR_EACH_COMBO,
    // times the four iterative solvers, times native / fp32 storage (fp32
    // requested by the options on native parts, and fp32 parts): a
    // two-part batch solved through a recording cache — recorded and
    // replayed, rebound to new values and replayed again, rebound to a
    // smaller batch that replays only its own systems, then outgrown by a
    // batch past the recorded capacity, which records once more — must
    // match eager solves of each part bit for bit, and report the same
    // launch counters as the eager fused solve of the same batch.
    using solver::matrix_format;
    using ptype = bl::precond::type;
    const std::vector<std::pair<matrix_format, ptype>> cells{
        {matrix_format::csr, ptype::none},
        {matrix_format::csr, ptype::jacobi},
        {matrix_format::csr, ptype::ilu},
        {matrix_format::csr, ptype::isai},
        {matrix_format::csr, ptype::block_jacobi},
        {matrix_format::ell, ptype::none},
        {matrix_format::ell, ptype::jacobi},
        {matrix_format::dense, ptype::none},
        {matrix_format::dense, ptype::jacobi}};
    const std::vector<solver::solver_type> solvers{
        solver::solver_type::cg, solver::solver_type::bicgstab,
        solver::solver_type::gmres, solver::solver_type::richardson};
    enum class storage { native, fp32_opts, fp32_parts };
    constexpr index_type rows = 16;
    // Parts per round: 5 systems record at capacity 8, 3 fit it, 9 do not.
    const index_type round_items[4][2] = {{2, 3}, {2, 3}, {1, 2}, {4, 5}};

    const auto as_format = [](mat::batch_csr<double> csr,
                              matrix_format f, bool fp32) {
        solver::batch_matrix<double> a = csr;
        if (f == matrix_format::ell) {
            a = mat::to_ell(csr);
        } else if (f == matrix_format::dense) {
            a = mat::to_dense(csr);
        }
        if (fp32) {
            solver::set_storage(a, mat::storage_precision::fp32);
        }
        return a;
    };

    for (const auto& [format, pc] : cells) {
        for (const solver::solver_type s : solvers) {
            for (const storage st : {storage::native, storage::fp32_opts,
                                     storage::fp32_parts}) {
                const std::string where =
                    solver::to_string(format) + "/" +
                    bl::precond::to_string(pc) + "/" +
                    solver::to_string(s) + "/" +
                    std::to_string(static_cast<int>(st));
                solver::solve_options opts;
                opts.solver = s;
                opts.preconditioner = pc;
                opts.criterion = stop::relative(1e-10, 40);
                opts.gmres_restart = 6;
                opts.storage = st == storage::native
                                   ? mat::storage_precision::native
                                   : mat::storage_precision::fp32;

                bl::xpu::queue rq(bl::xpu::make_sycl_policy());
                solver::recording_cache<double> cache(1);
                for (std::uint64_t round = 0; round < 4; ++round) {
                    const index_type* part_items = round_items[round];
                    std::vector<solver::batch_matrix<double>> as;
                    std::vector<mat::batch_dense<double>> bs, xs, xe;
                    std::vector<solver::assembly_part<double>> parts, eparts;
                    for (int p = 0; p < 2; ++p) {
                        const std::uint64_t seed = 40 + 10 * round + p;
                        as.push_back(as_format(
                            work::stencil_3pt<double>(part_items[p], rows,
                                                      seed),
                            format, st == storage::fp32_parts));
                        bs.push_back(work::random_rhs<double>(
                            part_items[p], rows, seed + 5));
                        xs.emplace_back(part_items[p], rows, 1);
                        xe.emplace_back(part_items[p], rows, 1);
                    }
                    for (int p = 0; p < 2; ++p) {
                        parts.push_back({&as[p], &bs[p], &xs[p]});
                        eparts.push_back({&as[p], &bs[p], &xe[p]});
                    }
                    const solver::solve_result got =
                        solver::solve_coalesced(rq, parts, opts, &cache)
                            .solves.front();
                    const solver::recording_counts& counts = cache.totals();
                    EXPECT_EQ(counts.recorded, round < 3 ? 1u : 2u) << where;
                    EXPECT_EQ(counts.replayed, round + 1) << where;
                    EXPECT_EQ(got.log.num_systems(),
                              part_items[0] + part_items[1])
                        << where;

                    bl::xpu::queue eq(bl::xpu::make_sycl_policy());
                    const solver::solve_result fused =
                        solver::solve_coalesced(eq, eparts, opts)
                            .solves.front();
                    EXPECT_EQ(got.log.all_iterations(),
                              fused.log.all_iterations())
                        << where << " round " << round;
                    EXPECT_EQ(got.log.all_statuses(),
                              fused.log.all_statuses())
                        << where << " round " << round;
                    EXPECT_TRUE(same_bits(got.log.all_residual_norms(),
                                          fused.log.all_residual_norms()))
                        << where << " round " << round;
                    const bl::xpu::counters& want = fused.stats;
                    EXPECT_EQ(got.stats.groups_launched,
                              want.groups_launched)
                        << where;
                    EXPECT_EQ(got.stats.flops, want.flops) << where;
                    EXPECT_EQ(got.stats.global_read_bytes,
                              want.global_read_bytes)
                        << where;
                    EXPECT_EQ(got.stats.global_write_bytes,
                              want.global_write_bytes)
                        << where;
                    EXPECT_EQ(got.stats.slm_bytes, want.slm_bytes) << where;
                    EXPECT_EQ(got.stats.constant_read_bytes,
                              want.constant_read_bytes)
                        << where;
                    EXPECT_EQ(got.stats.kernel_launches, 1) << where;
                    EXPECT_EQ(got.stats.kernel_launches,
                              want.kernel_launches)
                        << where;

                    index_type offset = 0;
                    for (int p = 0; p < 2; ++p) {
                        mat::batch_dense<double> x(part_items[p], rows, 1);
                        bl::xpu::queue q(bl::xpu::make_sycl_policy());
                        const solver::solve_result eager =
                            solver::solve(q, as[p], bs[p], x, opts);
                        const bl::log::batch_log replayed = solver::split_log(
                            got.log, offset, part_items[p]);
                        EXPECT_TRUE(same_bits(xs[p].values(), x.values()))
                            << where << " round " << round << " part " << p;
                        EXPECT_TRUE(same_bits(xs[p].values(), xe[p].values()))
                            << where << " round " << round << " part " << p;
                        EXPECT_EQ(replayed.all_iterations(),
                                  eager.log.all_iterations())
                            << where << " round " << round << " part " << p;
                        EXPECT_TRUE(same_bits(replayed.all_residual_norms(),
                                              eager.log.all_residual_norms()))
                            << where << " round " << round << " part " << p;
                        offset += part_items[p];
                    }
                }
            }
        }
    }
}

// Routing requests through the service produces bit-identical solutions
// and convergence records to solo solves, for every worker count and
// batching window.
TEST(Serve, RepliesBitIdenticalToSoloSolvesAcrossConfigs)
{
    std::uint64_t seed = 0;
    for (const int workers : {1, 3}) {
        for (const long wait_us : {0L, 2000L}) {
            oracle::check_serve_path({bl::xpu::launch_mode::direct, 1,
                                      workers, microseconds(wait_us)},
                                     seed++);
        }
    }
}

TEST(Serve, FloatRequestsAreServedAndKeptApartFromDouble)
{
    serve::service_config cfg;
    cfg.workers = 1;
    cfg.max_wait = milliseconds(50);
    serve::solve_service service(bl::xpu::make_sycl_policy(), cfg);

    solver::solve_options fopts;
    fopts.solver = solver::solver_type::cg;
    fopts.preconditioner = bl::precond::type::jacobi;
    fopts.criterion = stop::relative(1e-4, 100);

    auto fticket = service.submit(make_request(
        work::stencil_3pt<float>(2, 16, 31), fopts, 77));
    auto dticket = service.submit(
        make_request(work::stencil_3pt<double>(2, 16, 31), cg_opts(), 77));
    const auto freply = fticket.get();
    const auto dreply = dticket.get();
    ASSERT_EQ(freply.status, serve::request_status::ok) << freply.error;
    ASSERT_EQ(dreply.status, serve::request_status::ok) << dreply.error;
    // Different precisions never share a fused launch.
    EXPECT_EQ(freply.fused_systems, 2);
    EXPECT_EQ(dreply.fused_systems, 2);
    EXPECT_EQ(freply.log.num_converged(), 2);
    EXPECT_EQ(dreply.log.num_converged(), 2);
}

TEST(Serve, CompatibleRequestsCoalesceIntoOneLaunch)
{
    for (const bl::xpu::launch_mode mode : oracle::kLaunchModes) {
        SCOPED_TRACE(bl::xpu::to_string(mode));
        serve::service_config cfg;
        cfg.workers = 1;
        cfg.max_batch = 16;
        cfg.max_wait = milliseconds(500);  // generous window: all 5 fuse
        cfg.idle_flush = microseconds(0);  // hold the window when idle
        serve::solve_service service(mode_policy(mode), cfg);

        std::vector<serve::solve_service::ticket<double>> tickets;
        for (int i = 0; i < 5; ++i) {
            tickets.push_back(service.submit(make_request(
                work::stencil_3pt<double>(1, 16, 41), cg_opts(),
                200 + static_cast<std::uint64_t>(i))));
        }
        for (auto& t : tickets) {
            const auto reply = t.get();
            ASSERT_EQ(reply.status, serve::request_status::ok)
                << reply.error;
            EXPECT_EQ(reply.fused_systems, 5);
        }
        service.drain();
        const serve::service_stats s = service.stats();
        EXPECT_EQ(s.submitted_requests, 5u);
        EXPECT_EQ(s.completed_requests, 5u);
        EXPECT_EQ(s.completed_systems, 5u);
        EXPECT_EQ(s.batches_launched, 1u);
        ASSERT_GT(s.batch_size_histogram.size(), 5u);
        EXPECT_EQ(s.batch_size_histogram[5], 1u);
        EXPECT_DOUBLE_EQ(s.mean_batch_size, 5.0);
        EXPECT_GT(s.p50_latency_seconds, 0.0);
        EXPECT_GE(s.p99_latency_seconds, s.p50_latency_seconds);
    }
}

TEST(Serve, OversizedRequestLaunchesAloneInHistogramBucketZero)
{
    // A request with more systems than max_batch is admitted and launched
    // alone; the histogram counts that launch in bucket 0.
    serve::service_config cfg;
    cfg.workers = 1;
    cfg.max_batch = 4;
    serve::solve_service service(bl::xpu::make_sycl_policy(), cfg);
    const auto reply = service
                           .submit(make_request(
                               work::stencil_3pt<double>(5, 16, 43),
                               cg_opts(), 210))
                           .get();
    ASSERT_EQ(reply.status, serve::request_status::ok) << reply.error;
    EXPECT_EQ(reply.fused_systems, 5);
    service.drain();
    const serve::service_stats s = service.stats();
    EXPECT_EQ(s.batches_launched, 1u);
    ASSERT_EQ(s.batch_size_histogram.size(), 5u);
    EXPECT_EQ(s.batch_size_histogram[0], 1u);
    EXPECT_DOUBLE_EQ(s.mean_batch_size, 5.0);
}

TEST(Serve, ExpiredRequestsAreNeverSolved)
{
    serve::service_config cfg;
    cfg.workers = 1;
    cfg.max_wait = milliseconds(100);
    cfg.idle_flush = microseconds(0);  // the leader must hold its window
    serve::solve_service service(bl::xpu::make_sycl_policy(), cfg);

    // A leader with a long window delays the doomed request past its
    // deadline; the worker must expire it without solving.
    auto leader = service.submit(
        make_request(work::stencil_3pt<double>(1, 16, 51), cg_opts(), 301));
    auto doomed_req = make_request(work::stencil_3pt<double>(1, 24, 52),
                                   cg_opts(), 302);
    doomed_req.deadline = microseconds(1);
    std::this_thread::sleep_for(milliseconds(5));
    auto doomed = service.submit(std::move(doomed_req));

    const auto doomed_reply = doomed.get();
    EXPECT_EQ(doomed_reply.status, serve::request_status::expired);
    EXPECT_TRUE(doomed_reply.log.all_iterations().empty());
    // The initial guess comes back untouched.
    for (const double v : doomed_reply.x.values()) {
        EXPECT_EQ(v, 0.0);
    }
    const auto leader_reply = leader.get();
    EXPECT_EQ(leader_reply.status, serve::request_status::ok);
    service.drain();
    EXPECT_EQ(service.stats().expired_requests, 1u);
}

TEST(Serve, AlreadyExpiredDeadlineIsRefusedAtAdmission)
{
    // Deadline checkpoint 1: a caller computing a relative deadline from
    // a stale clock can submit one that is already negative. It must
    // resolve `expired` at admission — before routing, before the queue —
    // and never be read as "no deadline" (the zero sentinel next door).
    serve::service_config cfg;
    cfg.workers = 1;
    serve::solve_service service(bl::xpu::make_sycl_policy(), cfg);

    auto stale_req = make_request(work::stencil_3pt<double>(2, 16, 53),
                                  cg_opts(), 303);
    stale_req.deadline = microseconds(-1);
    const auto stale_reply = service.submit(std::move(stale_req)).get();
    EXPECT_EQ(stale_reply.status, serve::request_status::expired);
    EXPECT_TRUE(stale_reply.log.all_iterations().empty());
    for (const double v : stale_reply.x.values()) {
        EXPECT_EQ(v, 0.0);
    }
    // The zero default still means "no deadline", not "expired now".
    const auto ok_reply =
        service
            .submit(make_request(work::stencil_3pt<double>(2, 16, 53),
                                 cg_opts(), 303))
            .get();
    EXPECT_EQ(ok_reply.status, serve::request_status::ok);
    service.drain();
    const auto s = service.stats();
    EXPECT_EQ(s.expired_requests, 1u);
    EXPECT_EQ(s.completed_requests, 1u);
    // The admission refusal was accounted before routing: no shard saw it.
    std::uint64_t routed = 0;
    for (const auto& ss : s.shards) {
        routed += ss.routed_requests;
    }
    EXPECT_EQ(routed, 1u);
}

TEST(Serve, BoundedQueueRejectsWhenFull)
{
    serve::service_config cfg;
    cfg.workers = 1;
    cfg.max_batch = 1;
    cfg.max_wait = milliseconds(0);
    cfg.max_queue_systems = 2;
    cfg.on_full = serve::overflow_policy::reject;
    serve::solve_service service(bl::xpu::make_sycl_policy(), cfg);

    // Keep submitting until admission control trips: the single worker
    // cannot drain a fast submitter forever with a bound of 2 systems.
    bool saw_rejection = false;
    std::vector<serve::solve_service::ticket<double>> tickets;
    for (int i = 0; i < 200 && !saw_rejection; ++i) {
        tickets.push_back(service.submit(
            make_request(work::stencil_3pt<double>(2, 48, 61), cg_opts(),
                         400 + static_cast<std::uint64_t>(i))));
        saw_rejection = service.stats().rejected_requests > 0;
    }
    std::uint64_t rejected = 0;
    for (auto& t : tickets) {
        const auto reply = t.get();
        if (reply.status == serve::request_status::rejected) {
            ++rejected;
            EXPECT_TRUE(reply.log.all_iterations().empty());
        } else {
            EXPECT_EQ(reply.status, serve::request_status::ok);
        }
    }
    EXPECT_TRUE(saw_rejection);
    EXPECT_EQ(service.stats().rejected_requests, rejected);
    // A too-large single request can never be admitted.
    auto huge = service.submit(
        make_request(work::stencil_3pt<double>(3, 16, 62), cg_opts(), 500));
    EXPECT_EQ(huge.get().status, serve::request_status::rejected);
}

TEST(Serve, BlockPolicyWaitsForSpaceInsteadOfRejecting)
{
    serve::service_config cfg;
    cfg.workers = 1;
    cfg.max_batch = 1;
    cfg.max_wait = milliseconds(0);
    cfg.max_queue_systems = 1;
    cfg.on_full = serve::overflow_policy::block;
    serve::solve_service service(bl::xpu::make_sycl_policy(), cfg);

    std::vector<serve::solve_service::ticket<double>> tickets;
    for (int i = 0; i < 20; ++i) {
        tickets.push_back(service.submit(
            make_request(work::stencil_3pt<double>(1, 16, 71), cg_opts(),
                         600 + static_cast<std::uint64_t>(i))));
    }
    for (auto& t : tickets) {
        EXPECT_EQ(t.get().status, serve::request_status::ok);
    }
    // Replies are fulfilled before the stats commit; quiesce the workers
    // so the counters below are final.
    service.drain();
    const serve::service_stats s = service.stats();
    EXPECT_EQ(s.rejected_requests, 0u);
    EXPECT_EQ(s.completed_requests, 20u);
}

TEST(Serve, OversizeRequestUnderBlockPolicyIsRejected)
{
    // A request larger than the whole admission bound can never fit, so
    // a blocking submit must refuse it up front instead of parking its
    // submitter until stop().
    for (const bl::xpu::launch_mode mode : oracle::kLaunchModes) {
        SCOPED_TRACE(bl::xpu::to_string(mode));
        serve::service_config cfg;
        cfg.workers = 1;
        cfg.max_queue_systems = 2;
        cfg.on_full = serve::overflow_policy::block;
        serve::solve_service service(mode_policy(mode), cfg);

        auto pending = std::async(std::launch::async, [&] {
            return service
                .submit(make_request(work::stencil_3pt<double>(3, 16, 83),
                                     cg_opts(), 801))
                .get();
        });
        const std::future_status waited =
            pending.wait_for(std::chrono::seconds(2));
        // stop() before asserting: it releases a submitter that a broken
        // admission path left parked, so a regression fails, not hangs.
        service.stop();
        EXPECT_EQ(waited, std::future_status::ready);
        EXPECT_EQ(pending.get().status, serve::request_status::rejected);
    }
}

TEST(Serve, StopDrainsQueuedWorkAndRejectsLateSubmits)
{
    serve::service_config cfg;
    cfg.workers = 2;
    cfg.max_wait = milliseconds(20);
    serve::solve_service service(bl::xpu::make_sycl_policy(), cfg);

    std::vector<serve::solve_service::ticket<double>> tickets;
    for (int i = 0; i < 6; ++i) {
        tickets.push_back(service.submit(
            make_request(work::stencil_3pt<double>(1, 16, 81), cg_opts(),
                         700 + static_cast<std::uint64_t>(i))));
    }
    service.stop();
    EXPECT_FALSE(service.accepting());
    // Everything admitted before stop() still gets solved.
    for (auto& t : tickets) {
        EXPECT_EQ(t.get().status, serve::request_status::ok);
    }
    auto late = service.submit(
        make_request(work::stencil_3pt<double>(1, 16, 82), cg_opts(), 800));
    EXPECT_EQ(late.get().status, serve::request_status::rejected);
    service.stop();  // idempotent
}

TEST(Serve, SubmitsRacingStopAllResolve)
{
    // Submitters hammer the service while stop() runs. One can pass the
    // "accepting?" check and stall before its push, or sit in blocked
    // admission; either way its ticket must resolve (solved or rejected),
    // never hang behind workers that already exited.
    for (const bl::xpu::launch_mode mode : oracle::kLaunchModes) {
        SCOPED_TRACE(bl::xpu::to_string(mode));
        for (int round = 0; round < 6; ++round) {
            SCOPED_TRACE(round);
            serve::service_config cfg;
            cfg.workers = 2;
            cfg.max_wait = microseconds(50);
            cfg.max_queue_systems = 8;
            cfg.on_full = round % 2 == 0 ? serve::overflow_policy::block
                                         : serve::overflow_policy::reject;
            serve::solve_service service(mode_policy(mode), cfg);

            std::mutex mu;
            std::vector<serve::solve_service::ticket<double>> tickets;
            std::vector<std::thread> submitters;
            for (int t = 0; t < 4; ++t) {
                submitters.emplace_back([&, t] {
                    // Keep going a few submits past stop() to land in the
                    // check-to-push window from every side.
                    int after_stop = 0;
                    for (int i = 0; i < 400 && after_stop < 4; ++i) {
                        auto ticket = service.submit(make_request(
                            work::stencil_3pt<double>(1, 16, 91), cg_opts(),
                            900 + static_cast<std::uint64_t>(t * 1000 + i)));
                        std::lock_guard<std::mutex> lk(mu);
                        tickets.push_back(std::move(ticket));
                        after_stop += service.accepting() ? 0 : 1;
                    }
                });
            }
            std::this_thread::sleep_for(microseconds(300 * (round + 1)));
            service.stop();
            for (std::thread& t : submitters) {
                t.join();
            }
            const std::size_t submitted = tickets.size();
            const auto statuses =
                statuses_within(std::move(tickets), std::chrono::seconds(20));
            ASSERT_TRUE(statuses.has_value()) << "a ticket never resolved";
            std::uint64_t ok = 0;
            std::uint64_t rejected = 0;
            for (const serve::request_status st : *statuses) {
                ok += st == serve::request_status::ok ? 1 : 0;
                rejected += st == serve::request_status::rejected ? 1 : 0;
            }
            EXPECT_EQ(ok + rejected, submitted);
            const serve::service_stats s = service.stats();
            EXPECT_EQ(s.submitted_requests, submitted);
            EXPECT_EQ(s.completed_requests, ok);
            EXPECT_EQ(s.rejected_requests, rejected);
            EXPECT_EQ(s.queue_depth_systems, 0u);
        }
    }
}

TEST(Serve, MalformedRequestsThrowAtSubmit)
{
    serve::solve_service service(bl::xpu::make_sycl_policy(), {});
    // Mismatched right-hand-side batch size.
    serve::solve_request<double> bad;
    bad.a = work::stencil_3pt<double>(2, 16, 91);
    bad.b = work::random_rhs<double>(3, 16, 92);
    bad.x = mat::batch_dense<double>(2, 16, 1);
    bad.opts = cg_opts();
    EXPECT_THROW(service.submit(std::move(bad)), bl::error);
    // record_history cannot be scattered per request.
    auto hist = make_request(work::stencil_3pt<double>(2, 16, 93),
                             cg_opts(), 94);
    hist.opts.record_history = true;
    EXPECT_THROW(service.submit(std::move(hist)), bl::error);
}

// The library reads no environment variable: a default config and
// default options mean their documented defaults whatever is set.
TEST(Serve, ConfigIsNotRewrittenByTheEnvironment)
{
    const char* const vars[][2] = {{"BATCHLIN_LAUNCH_MODE", "graph_replay"},
                                   {"BATCHLIN_SHARDS", "3"},
                                   {"BATCHLIN_SHARD_DEVICES", "pvc1s,pvc2s"},
                                   {"BATCHLIN_FAILOVER", "1"},
                                   {"BATCHLIN_STORAGE", "fp32"}};
    for (const auto& var : vars) {
        ::setenv(var[0], var[1], 1);
    }
    {
        serve::solve_service service(bl::xpu::make_sycl_policy());
        const solver::solve_options opts;
        EXPECT_EQ(service.launch_mode(), bl::xpu::launch_mode::direct);
        EXPECT_EQ(service.devices().size(), 1);
        EXPECT_FALSE(service.config().failover);
        EXPECT_EQ(opts.storage, mat::storage_precision::native);
    }
    for (const auto& var : vars) {
        ::unsetenv(var[0]);
    }
}

TEST(Serve, StatsTrackSubmittedAndQueueDepth)
{
    serve::service_config cfg;
    cfg.workers = 1;
    cfg.max_wait = milliseconds(0);
    serve::solve_service service(bl::xpu::make_sycl_policy(), cfg);
    const auto idle = service.stats();
    EXPECT_EQ(idle.submitted_requests, 0u);
    EXPECT_EQ(idle.queue_depth_requests, 0u);
    EXPECT_EQ(idle.solves_per_sec, 0.0);

    auto t = service.submit(make_request(
        work::stencil_3pt<double>(4, 16, 95), cg_opts(), 96));
    ASSERT_EQ(t.get().status, serve::request_status::ok);
    service.drain();
    const auto after = service.stats();
    EXPECT_EQ(after.submitted_requests, 1u);
    EXPECT_EQ(after.submitted_systems, 4u);
    EXPECT_EQ(after.completed_systems, 4u);
    EXPECT_EQ(after.queue_depth_requests, 0u);
    EXPECT_EQ(after.queue_depth_systems, 0u);
    EXPECT_GT(after.solves_per_sec, 0.0);
    EXPECT_GT(after.uptime_seconds, 0.0);
}

// ---------------------------------------------------------------------
// Serve-layer resilience: structured failure of throwing solves, launch
// fault retry with backoff, degradation to solo solves, and the circuit
// breaker that suspends coalescing under a fault storm.
// ---------------------------------------------------------------------

TEST(ServeResilience, ThrowingSolveFailsTicketNotService)
{
    // ILU + ELL passes submit's shape validation but throws
    // unsupported_combination inside the worker's solve: the ticket must
    // resolve `failed` with the message, and the worker must survive to
    // serve the next (healthy) request.
    for (const bl::xpu::launch_mode mode : oracle::kLaunchModes) {
        SCOPED_TRACE(bl::xpu::to_string(mode));
        serve::service_config cfg;
        cfg.workers = 1;
        cfg.max_wait = milliseconds(0);
        serve::solve_service service(mode_policy(mode), cfg);

        serve::solve_request<double> poisoned;
        poisoned.a = mat::to_ell(work::stencil_3pt<double>(2, 16, 61));
        poisoned.b = work::random_rhs<double>(2, 16, 62);
        poisoned.x = mat::batch_dense<double>(2, 16, 1);
        poisoned.opts = cg_opts();
        poisoned.opts.preconditioner = bl::precond::type::ilu;
        auto doomed = service.submit(std::move(poisoned));

        const auto failed_reply = doomed.get();
        EXPECT_EQ(failed_reply.status, serve::request_status::failed);
        EXPECT_NE(failed_reply.error.find("BatchIlu"), std::string::npos)
            << failed_reply.error;
        // The request's storage comes back even on failure.
        EXPECT_EQ(failed_reply.b.num_batch_items(), 2);

        auto healthy = service.submit(make_request(
            work::stencil_3pt<double>(2, 16, 63), cg_opts(), 64));
        const auto ok_reply = healthy.get();
        ASSERT_EQ(ok_reply.status, serve::request_status::ok) << ok_reply.error;
        EXPECT_EQ(ok_reply.attempts, 1);
        EXPECT_EQ(ok_reply.log.num_converged(), 2);

        service.drain();
        const serve::service_stats s = service.stats();
        EXPECT_EQ(s.failed_requests, 1u);
        EXPECT_EQ(s.completed_requests, 1u);
        // A thrown std::exception is not a device fault; no retry happened.
        EXPECT_EQ(s.launch_faults, 0u);
        EXPECT_EQ(s.launch_retries, 0u);
    }
}

TEST(ServeResilience, TransientLaunchFaultIsRetriedToSuccess)
{
    for (const bl::xpu::launch_mode mode : oracle::kLaunchModes) {
        SCOPED_TRACE(bl::xpu::to_string(mode));
        serve::service_config cfg;
        cfg.workers = 1;
        cfg.max_wait = milliseconds(0);
        cfg.launch_retries = 2;
        cfg.retry_backoff = microseconds(1);
        serve::solve_service service(mode_policy(mode, {0}), cfg);

        auto ticket = service.submit(make_request(
            work::stencil_3pt<double>(3, 16, 71), cg_opts(), 72));
        const auto reply = ticket.get();
        ASSERT_EQ(reply.status, serve::request_status::ok) << reply.error;
        EXPECT_EQ(reply.attempts, 2);
        EXPECT_EQ(reply.log.num_converged(), 3);

        service.drain();
        const serve::service_stats s = service.stats();
        EXPECT_EQ(s.launch_faults, 1u);
        EXPECT_EQ(s.launch_retries, 1u);
        EXPECT_EQ(s.recovered_requests, 1u);
        EXPECT_EQ(s.degraded_launches, 0u);
        EXPECT_EQ(s.failed_requests, 0u);
        EXPECT_EQ(s.completed_requests, 1u);
    }
}

TEST(ServeResilience, ExhaustedRetriesDegradeToSoloSolves)
{
    for (const bl::xpu::launch_mode mode : oracle::kLaunchModes) {
        SCOPED_TRACE(bl::xpu::to_string(mode));
        serve::service_config cfg;
        cfg.workers = 1;
        // max_batch 2 cuts the window short the moment both requests are in.
        cfg.max_batch = 2;
        cfg.max_wait = milliseconds(500);
        cfg.idle_flush = microseconds(0);  // both requests must fuse
        cfg.launch_retries = 2;
        cfg.retry_backoff = microseconds(1);
        // Launches 0..2 (the fused attempt and both retries) fail; the solo
        // re-solves land on later, clean launch ids.
        serve::solve_service service(mode_policy(mode, {0, 1, 2}), cfg);

        auto t1 = service.submit(make_request(
            work::stencil_3pt<double>(1, 16, 73), cg_opts(), 74));
        auto t2 = service.submit(make_request(
            work::stencil_3pt<double>(1, 16, 73), cg_opts(), 75));
        const auto r1 = t1.get();
        const auto r2 = t2.get();
        ASSERT_EQ(r1.status, serve::request_status::ok) << r1.error;
        ASSERT_EQ(r2.status, serve::request_status::ok) << r2.error;
        EXPECT_GT(r1.attempts, 1);

        service.drain();
        const serve::service_stats s = service.stats();
        EXPECT_EQ(s.launch_faults, 3u);
        EXPECT_EQ(s.degraded_launches, 1u);
        EXPECT_GE(s.recovered_requests, 1u);
        EXPECT_EQ(s.failed_requests, 0u);
        EXPECT_EQ(s.completed_requests, 2u);
    }
}

TEST(ServeResilience, PersistentFaultFailsWithStructuredError)
{
    for (const bl::xpu::launch_mode mode : oracle::kLaunchModes) {
        SCOPED_TRACE(bl::xpu::to_string(mode));
        serve::service_config cfg;
        cfg.workers = 1;
        cfg.max_wait = milliseconds(0);
        cfg.launch_retries = 1;
        cfg.retry_backoff = microseconds(1);
        std::vector<std::uint64_t> storm;
        for (std::uint64_t launch = 0; launch < 10; ++launch) {
            storm.push_back(launch);
        }
        serve::solve_service service(mode_policy(mode, storm), cfg);

        auto ticket = service.submit(make_request(
            work::stencil_3pt<double>(2, 16, 76), cg_opts(), 77));
        const auto reply = ticket.get();
        EXPECT_EQ(reply.status, serve::request_status::failed);
        // Fused: attempts 1+1, then solo: 1+1 more — four in total, spelled
        // out in the structured error message.
        EXPECT_EQ(reply.attempts, 4);
        EXPECT_NE(reply.error.find("device fault persisted through 4"),
                  std::string::npos)
            << reply.error;
        EXPECT_NE(reply.error.find("launch_fail"), std::string::npos)
            << reply.error;

        service.drain();
        const serve::service_stats s = service.stats();
        EXPECT_EQ(s.launch_faults, 4u);
        EXPECT_EQ(s.launch_retries, 2u);
        EXPECT_EQ(s.degraded_launches, 1u);
        EXPECT_EQ(s.failed_requests, 1u);
        EXPECT_EQ(s.recovered_requests, 0u);
        EXPECT_EQ(s.completed_requests, 0u);
    }
}

TEST(ServeResilience, FaultStormTripsTheBreakerAndSuspendsCoalescing)
{
    for (const bl::xpu::launch_mode mode : oracle::kLaunchModes) {
        SCOPED_TRACE(bl::xpu::to_string(mode));
        serve::service_config cfg;
        cfg.workers = 1;
        // Small enough to keep the storm phase fast, large enough that two
        // compatible requests would reliably fuse were the breaker closed
        // (max_batch 2 cuts the window short once both are queued).
        cfg.max_batch = 2;
        cfg.max_wait = milliseconds(100);
        cfg.launch_retries = 0;
        cfg.retry_backoff = microseconds(1);
        cfg.breaker_window = 4;
        cfg.breaker_fault_ratio = 0.5;
        cfg.breaker_cooldown = 16;
        // Every launch of the storm phase faults: each of the four requests
        // burns its fused attempt and its solo re-solve (2 launches each).
        std::vector<std::uint64_t> storm;
        for (std::uint64_t launch = 0; launch < 8; ++launch) {
            storm.push_back(launch);
        }
        serve::solve_service service(mode_policy(mode, storm), cfg);

        for (int i = 0; i < 4; ++i) {
            auto ticket = service.submit(make_request(
                work::stencil_3pt<double>(1, 16, 81), cg_opts(),
                82 + static_cast<std::uint64_t>(i)));
            EXPECT_EQ(ticket.get().status, serve::request_status::failed);
        }
        service.drain();
        const serve::service_stats tripped = service.stats();
        EXPECT_EQ(tripped.breaker_trips, 1u);
        EXPECT_TRUE(tripped.breaker_active);

        // While the breaker is open, compatible requests are NOT coalesced:
        // each gets its own (clean) launch even inside a generous window.
        auto t1 = service.submit(make_request(
            work::stencil_3pt<double>(1, 16, 83), cg_opts(), 84));
        auto t2 = service.submit(make_request(
            work::stencil_3pt<double>(1, 16, 83), cg_opts(), 85));
        const auto r1 = t1.get();
        const auto r2 = t2.get();
        ASSERT_EQ(r1.status, serve::request_status::ok) << r1.error;
        ASSERT_EQ(r2.status, serve::request_status::ok) << r2.error;
        EXPECT_EQ(r1.fused_systems, 1);
        EXPECT_EQ(r2.fused_systems, 1);
        service.drain();
        EXPECT_EQ(service.stats().breaker_trips, 1u);
    }
}

// ---------------------------------------------------------------------
// Launch modes: graph_replay must be bit-identical to the direct path,
// recordings must be reused via rebind() across batches, refined and trsv
// batches must bypass the recordings, a faulted replay must re-record
// (never replay a poisoned graph), and the dispatch ring must behave as a
// bounded lock-free MPMC queue.
// ---------------------------------------------------------------------

TEST(Serve, LaunchModesBitIdenticalToDirectAcrossSolvers)
{
    // Seeds 0-1 draw every iterative solver on csr/none in every flavor.
    for (const bl::xpu::launch_mode mode : oracle::kLaunchModes) {
        for (const std::uint64_t seed : {0, 1}) {
            oracle::check_serve_path({mode, 1, 1, microseconds(5000)},
                                     seed);
        }
    }
}

TEST(Serve, GraphReplayReusesRecordingAcrossRebinds)
{
    // One key whose fused size cycles 1..8, at the default
    // graph_cache_entries: a recording serves every batch up to its
    // power-of-two capacity, so the key records at most once per bucket
    // (1, 2, 4, 8), not once per size.
    constexpr index_type kSizes = 8;
    constexpr int kCycles = 3;
    serve::service_config cfg;
    cfg.workers = 1;
    cfg.max_batch = kSizes;
    cfg.max_wait = microseconds(0);
    serve::solve_service service(
        mode_policy(bl::xpu::launch_mode::graph_replay), cfg);

    std::uint64_t rhs_seed = 700;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
        for (index_type size = 1; size <= kSizes; ++size) {
            auto ticket = service.submit(
                make_request(work::stencil_3pt<double>(size, 20, 131),
                             cg_opts(), rhs_seed++));
            const serve::solve_reply<double> reply = ticket.get();
            ASSERT_EQ(reply.status, serve::request_status::ok)
                << "size " << size << ": " << reply.error;
        }
    }
    // Rebound replies are checked bit for bit against solo solves by the
    // Oracle.* suite.
    service.drain();
    const serve::service_stats s = service.stats();
    const std::uint64_t batches = kSizes * kCycles;
    EXPECT_LE(s.launches_recorded,
              static_cast<std::uint64_t>(std::bit_width(
                  static_cast<std::uint32_t>(kSizes))));
    EXPECT_EQ(s.replays, batches);
    EXPECT_EQ(s.rebind_only, batches - s.launches_recorded);
    EXPECT_EQ(s.batches_launched, batches);
}

TEST(Serve, RefinedAndTrsvRequestsBypassTheRecordingsBitIdentically)
{
    // Refinement has a convergence-dependent launch count and trsv cannot
    // be recorded, so in every launch mode both run outside the recording
    // cache, bit-identical to their solo solves. Seed 18 draws both trsv
    // keys and a refined one.
    const auto refined_or_trsv = [](const oracle::request_case& c) {
        return c.kind == oracle::flavor::f64_refined ||
               c.solver == solver::solver_type::trsv;
    };
    for (const bl::xpu::launch_mode mode : oracle::kLaunchModes) {
        const serve::service_stats s =
            oracle::check_serve_path({mode}, 18, refined_or_trsv);
        EXPECT_GT(s.refined_batches, 0u);
        EXPECT_GT(s.batches_launched, s.refined_batches);
        EXPECT_EQ(s.launches_recorded + s.replays + s.rebind_only, 0u);
    }
}

TEST(Serve, GraphReplayWorkersShareTheRingAndReplayEveryBatch)
{
    serve::service_config cfg;
    cfg.workers = 2;
    cfg.max_batch = 8;
    serve::solve_service service(
        mode_policy(bl::xpu::launch_mode::graph_replay), cfg);

    std::vector<serve::solve_service::ticket<double>> tickets;
    for (int i = 0; i < 24; ++i) {
        tickets.push_back(service.submit(make_request(
            work::stencil_3pt<double>(1, 16, 151), cg_opts(),
            900 + static_cast<std::uint64_t>(i))));
    }
    for (auto& ticket : tickets) {
        const serve::solve_reply<double> reply = ticket.get();
        ASSERT_EQ(reply.status, serve::request_status::ok) << reply.error;
    }
    service.drain();
    const serve::service_stats s = service.stats();
    EXPECT_EQ(s.completed_requests, 24u);
    EXPECT_EQ(s.queue_depth_requests, 0u);
    EXPECT_EQ(s.queue_depth_systems, 0u);
    EXPECT_GT(s.launches_recorded, 0u);
    // Every fused launch is a graph submission.
    EXPECT_EQ(s.replays, s.batches_launched);
    service.stop();
    // Late submits are rejected, exactly like the locked admission path.
    auto late = service.submit(make_request(
        work::stencil_3pt<double>(1, 16, 151), cg_opts(), 999));
    EXPECT_EQ(late.get().status, serve::request_status::rejected);
}

TEST(Serve, IdleFlushLaunchesLoneRequestEarly)
{
    for (const bl::xpu::launch_mode mode : oracle::kLaunchModes) {
        SCOPED_TRACE(bl::xpu::to_string(mode));
        serve::service_config cfg;
        cfg.workers = 1;
        cfg.max_batch = 64;
        cfg.max_wait = milliseconds(2000);
        cfg.idle_flush = microseconds(50);
        serve::solve_service service(mode_policy(mode), cfg);

        const auto t0 = std::chrono::steady_clock::now();
        auto ticket = service.submit(make_request(
            work::stencil_3pt<double>(1, 16, 161), cg_opts(), 1000));
        ASSERT_EQ(ticket.get().status, serve::request_status::ok);
        const auto elapsed = std::chrono::steady_clock::now() - t0;
        // The shard's ring is empty behind the lone leader, so the window
        // flushes after ~idle_flush instead of holding the 2 s max_wait.
        EXPECT_LT(elapsed, milliseconds(500));
    }
}

TEST(Serve, ZeroIdleFlushHoldsTheFullWindow)
{
    for (const bl::xpu::launch_mode mode : oracle::kLaunchModes) {
        SCOPED_TRACE(bl::xpu::to_string(mode));
        serve::service_config cfg;
        cfg.workers = 1;
        cfg.max_wait = milliseconds(300);
        cfg.idle_flush = microseconds(0);
        serve::solve_service service(mode_policy(mode), cfg);

        const auto t0 = std::chrono::steady_clock::now();
        auto ticket = service.submit(make_request(
            work::stencil_3pt<double>(1, 16, 162), cg_opts(), 1001));
        ASSERT_EQ(ticket.get().status, serve::request_status::ok);
        const auto elapsed = std::chrono::steady_clock::now() - t0;
        EXPECT_GE(elapsed, milliseconds(250));
    }
}

TEST(Serve, IdleFlushHoldIsCountedWithItsOversleep)
{
    for (const bl::xpu::launch_mode mode : oracle::kLaunchModes) {
        SCOPED_TRACE(bl::xpu::to_string(mode));
        serve::service_config cfg;
        cfg.workers = 1;
        cfg.max_wait = milliseconds(2000);
        cfg.idle_flush = microseconds(50);
        serve::solve_service service(mode_policy(mode), cfg);

        auto ticket = service.submit(make_request(
            work::stencil_3pt<double>(1, 16, 163), cg_opts(), 1002));
        ASSERT_EQ(ticket.get().status, serve::request_status::ok);
        // Replies resolve before the batch's counters commit.
        service.drain();
        const serve::service_stats s = service.stats();
        EXPECT_EQ(s.window_holds, 1u);
        EXPECT_GT(s.window_held_us, 0.0);
        // The lone leader's window closes on idle_flush, so its wake
        // past that deadline is part of the time it was held.
        EXPECT_GE(s.window_overslept_us, 0.0);
        EXPECT_LE(s.window_overslept_us, s.window_held_us);
        EXPECT_NE(s.to_json().find("\"window_holds\": 1,"),
                  std::string::npos);
    }
}

TEST(Serve, FullBatchInHandLaunchesWithoutAWindow)
{
    // A leader that already brings max_batch systems has no companion to
    // wait for: it launches at once, however long the window and with
    // the idle flush off — the rule that makes a queue-depth window
    // shrink under overload redundant.
    for (const bl::xpu::launch_mode mode : oracle::kLaunchModes) {
        SCOPED_TRACE(bl::xpu::to_string(mode));
        serve::service_config cfg;
        cfg.workers = 1;
        cfg.max_batch = 8;
        cfg.max_wait = milliseconds(2000);
        cfg.idle_flush = microseconds(0);
        serve::solve_service service(mode_policy(mode), cfg);

        const auto t0 = std::chrono::steady_clock::now();
        auto ticket = service.submit(make_request(
            work::stencil_3pt<double>(8, 16, 164), cg_opts(), 1003));
        const auto reply = ticket.get();
        const auto elapsed = std::chrono::steady_clock::now() - t0;
        ASSERT_EQ(reply.status, serve::request_status::ok) << reply.error;
        EXPECT_EQ(reply.fused_systems, 8);
        EXPECT_LT(elapsed, milliseconds(500));
        // Replies resolve before the batch's counters commit.
        service.drain();
        const serve::service_stats s = service.stats();
        EXPECT_EQ(s.window_holds, 0u);
        ASSERT_EQ(s.batch_size_histogram.size(), 9u);
        EXPECT_EQ(s.batch_size_histogram[8], 1u);
    }
}

TEST(Serve, SparseKeyLeaderLaunchesWithoutAWindow)
{
    // A key that submits every 40 ms cannot bring a companion inside a
    // 20 ms window: only its first request, with no gap seen yet, holds
    // one; every later leader launches at once. The sleeps only lengthen
    // the gaps. The window is long so that a worker woken late on a
    // loaded host still finds it open: a leader reached after its window
    // closed skips even when its first request would have held (at
    // 200 us, under a parallel ctest, half the rounds were reached that
    // late).
    constexpr int kRounds = 4;
    for (const bl::xpu::launch_mode mode : oracle::kLaunchModes) {
        SCOPED_TRACE(bl::xpu::to_string(mode));
        serve::service_config cfg;
        cfg.workers = 1;
        cfg.max_wait = milliseconds(20);
        cfg.idle_flush = microseconds(0);
        serve::solve_service service(mode_policy(mode), cfg);

        for (int round = 0; round < kRounds; ++round) {
            auto ticket = service.submit(make_request(
                work::stencil_3pt<double>(1, 16, 165), cg_opts(),
                1010 + static_cast<std::uint64_t>(round)));
            const auto reply = ticket.get();
            ASSERT_EQ(reply.status, serve::request_status::ok) << reply.error;
            EXPECT_EQ(reply.fused_systems, 1);
            std::this_thread::sleep_for(milliseconds(40));
        }
        service.drain();
        const serve::service_stats s = service.stats();
        EXPECT_EQ(s.window_holds, 1u);
        EXPECT_EQ(s.window_skips, static_cast<std::uint64_t>(kRounds - 1));
        EXPECT_NE(s.to_json().find("\"window_skips\": " +
                                   std::to_string(kRounds - 1) + ","),
                  std::string::npos);
    }
}

TEST(Serve, AlreadyClosedWindowCountsAsASkip)
{
    // At max_wait 0 every window has closed by the time the worker reaches
    // it: each leader launches without waiting, and counts as a skip, so
    // holds plus skips still account for every lone leader.
    constexpr int kRounds = 5;
    for (const bl::xpu::launch_mode mode : oracle::kLaunchModes) {
        SCOPED_TRACE(bl::xpu::to_string(mode));
        serve::service_config cfg;
        cfg.workers = 1;
        cfg.max_wait = microseconds(0);
        serve::solve_service service(mode_policy(mode), cfg);

        for (int round = 0; round < kRounds; ++round) {
            auto ticket = service.submit(make_request(
                work::stencil_3pt<double>(1, 16, 167), cg_opts(),
                1030 + static_cast<std::uint64_t>(round)));
            const auto reply = ticket.get();
            ASSERT_EQ(reply.status, serve::request_status::ok) << reply.error;
            EXPECT_EQ(reply.fused_systems, 1);
        }
        service.drain();
        const serve::service_stats s = service.stats();
        EXPECT_EQ(s.window_holds, 0u);
        EXPECT_EQ(s.window_skips, static_cast<std::uint64_t>(kRounds));
    }
}

TEST(Serve, WarmDenseKeyStillHoldsItsWindow)
{
    // A key whose submits come back to back keeps its window once warm.
    // Each round's leader is popped alone, and only then do its
    // companions arrive: they ride in its launch only if it holds. The
    // gaps the worker has seen are far shorter than the generous window,
    // so every round's leader holds, the first (cold) one included.
    constexpr int kRounds = 4;
    constexpr index_type kBurst = 4;
    for (const bl::xpu::launch_mode mode : oracle::kLaunchModes) {
        SCOPED_TRACE(bl::xpu::to_string(mode));
        serve::service_config cfg;
        cfg.workers = 1;
        cfg.max_batch = kBurst;  // the window closes once a burst is in
        cfg.max_wait = milliseconds(2000);
        cfg.idle_flush = microseconds(0);
        serve::solve_service service(mode_policy(mode), cfg);

        std::uint64_t rhs_seed = 1020;
        const auto submit = [&] {
            return service.submit(
                make_request(work::stencil_3pt<double>(1, 16, 166),
                             cg_opts(), rhs_seed++));
        };
        for (int round = 0; round < kRounds; ++round) {
            std::vector<serve::solve_service::ticket<double>> tickets;
            tickets.push_back(submit());
            while (service.stats().queue_depth_requests != 0) {
                std::this_thread::sleep_for(microseconds(50));
            }
            for (index_type i = 1; i < kBurst; ++i) {
                tickets.push_back(submit());
            }
            for (auto& t : tickets) {
                const auto reply = t.get();
                ASSERT_EQ(reply.status, serve::request_status::ok)
                    << reply.error;
                EXPECT_EQ(reply.fused_systems, kBurst) << "round " << round;
            }
        }
        service.drain();
        const serve::service_stats s = service.stats();
        EXPECT_EQ(s.window_holds, static_cast<std::uint64_t>(kRounds));
        EXPECT_EQ(s.window_skips, 0u);
    }
}

TEST(Serve, LatencyPercentilesKeepTheirRanksWhenSelectedFromOneCopy)
{
    // stats() selects p50 and then p99 from one copy of the window; each
    // must be the element at rank min(n - 1, floor(q n)) of the sorted
    // samples, the rank a fresh copy per quantile gave.
    const auto expect_ranks = [](const serve::latency_window& window,
                                 std::vector<double> recorded) {
        std::sort(recorded.begin(), recorded.end());
        const auto rank_of = [&](double q) {
            return recorded[std::min(
                recorded.size() - 1,
                static_cast<std::size_t>(
                    q * static_cast<double>(recorded.size())))];
        };
        std::vector<double> copy = window.samples();
        ASSERT_EQ(copy.size(), recorded.size());
        EXPECT_EQ(serve::select_quantile(copy, 0.50), rank_of(0.50));
        EXPECT_EQ(serve::select_quantile(copy, 0.99), rank_of(0.99));
    };
    // Distinct values in a scrambled order (37 is coprime to 1000).
    const auto value = [](int i) { return static_cast<double>((i * 37) % 1000); };

    serve::latency_window partial(100);
    std::vector<double> partial_recorded;
    for (int i = 0; i < 61; ++i) {
        partial.record(value(i));
        partial_recorded.push_back(value(i));
    }
    expect_ranks(partial, partial_recorded);

    // Wrapped: only the most recent 100 of 250 samples remain.
    serve::latency_window wrapped(100);
    std::vector<double> wrapped_recorded;
    for (int i = 0; i < 250; ++i) {
        wrapped.record(value(i));
        if (i >= 150) {
            wrapped_recorded.push_back(value(i));
        }
    }
    expect_ranks(wrapped, wrapped_recorded);

    std::vector<double> none;
    EXPECT_EQ(serve::select_quantile(none, 0.99), 0.0);
}

namespace {

/// First line of a /proc text file; empty when it is absent or
/// unreadable.
std::string proc_line(const std::string& path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

}  // namespace

TEST(Serve, ServiceThreadsOwnFineTimerSlack)
{
#if defined(__linux__)
    const long self = static_cast<long>(syscall(SYS_gettid));
    const std::string own_before =
        proc_line("/proc/" + std::to_string(self) + "/timerslack_ns");
    if (own_before.empty()) {
        GTEST_SKIP() << "no readable /proc/<tid>/timerslack_ns";
    }
    serve::service_config cfg;
    cfg.shards = 2;
    cfg.workers = 2;
    cfg.failover = true;
    serve::solve_service service(bl::xpu::make_sycl_policy(), cfg);
    std::set<std::string> expected{"serve-watchdog"};
    for (std::size_t shard = 0; shard < service.stats().shards.size();
         ++shard) {
        for (int w = 0; w < cfg.workers; ++w) {
            expected.insert("serve-s" + std::to_string(shard) + "w" +
                            std::to_string(w));
        }
    }
    ASSERT_EQ(expected.size(), 5u);  // one per worker plus the watchdog

    // comm name -> timer slack of each thread carrying it. Names, not
    // thread counts, identify the service's threads: OpenMP team threads
    // a worker starts inherit its name and slack, and may outlive an
    // earlier service of this process for a moment. A thread sets its
    // slack before its name, so a named thread already has its slack; the
    // threads name themselves as they start, hence the wait.
    std::map<std::string, std::vector<long long>> found;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    const auto all_named = [&] {
        for (const std::string& name : expected) {
            if (found.count(name) == 0) {
                return false;
            }
        }
        return true;
    };
    for (;;) {
        found.clear();
        DIR* dir = opendir("/proc/self/task");
        ASSERT_NE(dir, nullptr);
        while (const dirent* d = readdir(dir)) {
            if (d->d_name[0] == '.') {
                continue;
            }
            const std::string tid = d->d_name;
            const std::string comm = proc_line("/proc/" + tid + "/comm");
            if (comm.rfind("serve-", 0) != 0) {
                continue;
            }
            const std::string slack =
                proc_line("/proc/" + tid + "/timerslack_ns");
            found[comm].push_back(slack.empty() ? -1 : std::stoll(slack));
        }
        closedir(dir);
        if (all_named() || std::chrono::steady_clock::now() >= give_up) {
            break;
        }
        std::this_thread::sleep_for(milliseconds(1));
    }

    for (const std::string& name : expected) {
        SCOPED_TRACE(name);
        ASSERT_EQ(found.count(name), 1u);
        for (const long long slack : found[name]) {
            EXPECT_GE(slack, 0);
            EXPECT_LE(slack, 1000);
        }
    }
    // The library must not touch the caller's thread.
    EXPECT_EQ(proc_line("/proc/" + std::to_string(self) + "/timerslack_ns"),
              own_before);
#else
    GTEST_SKIP() << "timer slack is a Linux notion";
#endif
}

TEST(Serve, RingIsBoundedFifoAndHandsBackOwnership)
{
    serve::mpmc_ring<int> ring(3);  // rounds up to the next power of two
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_TRUE(ring.empty());
    int v = -1;
    EXPECT_FALSE(ring.try_pop(v));
    for (int i = 0; i < 4; ++i) {
        int value = i;
        EXPECT_TRUE(ring.try_push(value));
    }
    int overflow = 99;
    EXPECT_FALSE(ring.try_push(overflow));
    EXPECT_EQ(overflow, 99);  // a failed push leaves the value untouched
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ring.try_pop(v));
        EXPECT_EQ(v, i);  // FIFO
    }
    EXPECT_FALSE(ring.try_pop(v));
    // Freed capacity is reusable (the sequence counters lap correctly).
    int again = 7;
    EXPECT_TRUE(ring.try_push(again));
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, 7);
}

TEST(Serve, RingSurvivesConcurrentProducersAndConsumers)
{
    constexpr int kProducers = 2;
    constexpr int kConsumers = 2;
    constexpr int kPerProducer = 20000;
    serve::mpmc_ring<int> ring(64);
    std::atomic<long long> sum{0};
    std::atomic<int> popped{0};
    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&ring, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                int value = p * kPerProducer + i;
                while (!ring.try_push(value)) {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&] {
            int v;
            while (popped.load(std::memory_order_relaxed) <
                   kProducers * kPerProducer) {
                if (ring.try_pop(v)) {
                    sum.fetch_add(v, std::memory_order_relaxed);
                    popped.fetch_add(1, std::memory_order_relaxed);
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    const long long n = static_cast<long long>(kProducers) * kPerProducer;
    EXPECT_EQ(popped.load(), n);
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(Serve, RingCapacityOneRoundsUpToTwo)
{
    // The cell index is a mask of the cursor, so capacity is clamped to a
    // power of two >= 2; the degenerate request must still yield a working
    // ring, not a zero-mask one.
    serve::mpmc_ring<int> ring(1);
    EXPECT_EQ(ring.capacity(), 2u);
    int a = 10;
    int b = 20;
    int c = 30;
    EXPECT_TRUE(ring.try_push(a));
    EXPECT_TRUE(ring.try_push(b));
    EXPECT_FALSE(ring.try_push(c));
    EXPECT_EQ(c, 30);
    int v = 0;
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, 10);
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, 20);
    EXPECT_FALSE(ring.try_pop(v));
    // A zero-capacity request degrades the same way.
    serve::mpmc_ring<int> zero(0);
    EXPECT_EQ(zero.capacity(), 2u);
}

TEST(Serve, RingWrapsAroundAtIndexOverflow)
{
    // The cursors are raw size_t positions; the seq/pos discrimination is
    // done in differences, so the counters overflowing SIZE_MAX must be
    // invisible. The test seam starts both cursors just below the wrap.
    const std::size_t start = std::numeric_limits<std::size_t>::max() - 2;
    serve::mpmc_ring<int> ring(4, start);
    // Fill across the wrap point, drain, and lap a few more times.
    for (int lap = 0; lap < 3; ++lap) {
        for (int i = 0; i < 4; ++i) {
            int value = lap * 10 + i;
            ASSERT_TRUE(ring.try_push(value));
        }
        int overflow = 99;
        EXPECT_FALSE(ring.try_push(overflow));
        for (int i = 0; i < 4; ++i) {
            int v = -1;
            ASSERT_TRUE(ring.try_pop(v));
            EXPECT_EQ(v, lap * 10 + i);  // FIFO across the wrap
        }
        int v = -1;
        EXPECT_FALSE(ring.try_pop(v));
        EXPECT_TRUE(ring.empty());
    }
}

TEST(Serve, RingFullProducerBacksOffUntilConsumerDrains)
{
    // A full ring rejects without damaging the value; the producer's
    // backoff loop (exactly what submit_to_ring does) makes progress as
    // soon as the consumer frees a cell.
    constexpr int kItems = 1000;
    serve::mpmc_ring<int> ring(2);
    std::atomic<int> rejections{0};
    std::thread producer([&] {
        for (int i = 0; i < kItems; ++i) {
            int value = i;
            while (!ring.try_push(value)) {
                EXPECT_EQ(value, i);  // failed push leaves the value intact
                rejections.fetch_add(1, std::memory_order_relaxed);
                std::this_thread::yield();
            }
        }
    });
    std::vector<int> got;
    got.reserve(kItems);
    while (static_cast<int>(got.size()) < kItems) {
        int v = -1;
        if (ring.try_pop(v)) {
            got.push_back(v);
        } else {
            std::this_thread::yield();
        }
    }
    producer.join();
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kItems));
    for (int i = 0; i < kItems; ++i) {
        EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
    }
    int leftover = -1;
    EXPECT_FALSE(ring.try_pop(leftover));
}

TEST(ServeResilience, FaultedReplayReRecordsInsteadOfReplayingPoisonedGraph)
{
    serve::service_config cfg;
    cfg.workers = 1;
    cfg.max_wait = microseconds(0);
    cfg.launch_retries = 2;
    cfg.retry_backoff = microseconds(1);
    // Launch 0 (the first batch's replay) is clean; launch 1 (the second
    // batch's replay after a rebind) faults. The retry must re-record and
    // submit a fresh graph — replaying the invalidated one would bypass
    // the launch path and hide the fault.
    serve::solve_service service(
        mode_policy(bl::xpu::launch_mode::graph_replay, {1}), cfg);

    auto t1 = service.submit(make_request(
        work::stencil_3pt<double>(2, 20, 141), cg_opts(), 801));
    ASSERT_EQ(t1.get().status, serve::request_status::ok);
    auto t2 = service.submit(make_request(
        work::stencil_3pt<double>(2, 20, 141), cg_opts(), 802));
    const serve::solve_reply<double> r2 = t2.get();
    ASSERT_EQ(r2.status, serve::request_status::ok) << r2.error;
    EXPECT_EQ(r2.attempts, 2);

    service.drain();
    const serve::service_stats s = service.stats();
    EXPECT_EQ(s.launch_faults, 1u);
    EXPECT_EQ(s.launch_retries, 1u);
    EXPECT_EQ(s.recovered_requests, 1u);
    EXPECT_EQ(s.failed_requests, 0u);
    // Batch 1 recorded; batch 2 rebound and its replay faulted, so the
    // retry recorded again: two recordings, three graph submissions.
    EXPECT_EQ(s.launches_recorded, 2u);
    EXPECT_EQ(s.replays, 3u);
    EXPECT_EQ(s.rebind_only, 1u);
}
