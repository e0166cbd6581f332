// Tests for the multi-device sharding layer: registry enumeration and
// policy derivation, cost-model routing (determinism, device weighting,
// one shard per key at every item count), the per-shard circuit breaker,
// and the sharded serve path — bit-identity across shard counts (with and
// without injected per-shard faults), fault isolation, work stealing, and
// per-shard statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "batchlin/batchlin.hpp"
#include "oracle.hpp"
#include "shard/lane.hpp"
#include "shard/registry.hpp"
#include "shard/router.hpp"

namespace bl = batchlin;
namespace perf = batchlin::perf;
namespace serve = batchlin::serve;
namespace shard = batchlin::shard;
namespace solver = batchlin::solver;
namespace work = batchlin::work;
namespace xpu = batchlin::xpu;
using bl::index_type;
using std::chrono::microseconds;

using oracle::cg_opts;
using oracle::make_request;

namespace {

/// Fault schedule hitting every even launch in [0, 2 * executions): each
/// faulted launch recovers on its immediate retry (the retry is a fresh,
/// odd launch the schedule no longer matches).
xpu::fault_plan even_launch_faults(index_type executions)
{
    xpu::fault_plan plan;
    for (index_type i = 0; i < executions; ++i) {
        plan.events.push_back({xpu::fault_kind::launch_fail,
                               static_cast<std::uint64_t>(2 * i), 0, 1,
                               xpu::fault_target::slm,
                               xpu::poison_mode::nan});
    }
    return plan;
}

/// Which shard of `service` the stencil pattern (items, rows) routes to,
/// discovered by submitting one request and diffing the per-shard routed
/// counters. The router is deterministic in (key, specs), so the answer
/// transfers to any service with the same shard layout.
index_type affine_shard_for(serve::solve_service& service, index_type rows,
                            std::uint64_t seed)
{
    const serve::service_stats before = service.stats();
    service
        .submit(make_request(work::stencil_3pt<double>(1, rows, seed),
                             cg_opts(), seed))
        .get();
    const serve::service_stats after = service.stats();
    for (std::size_t s = 0; s < after.shards.size(); ++s) {
        if (after.shards[s].routed_requests >
            before.shards[s].routed_requests) {
            return static_cast<index_type>(s);
        }
    }
    ADD_FAILURE() << "request routed to no shard";
    return 0;
}

}  // namespace

TEST(ShardRegistry, CanonicalNamesAndParsing)
{
    EXPECT_EQ(shard::canonical_device_name("pvc1s"), "PVC-1S");
    EXPECT_EQ(shard::canonical_device_name("PVC-1S"), "PVC-1S");
    EXPECT_EQ(shard::canonical_device_name("pvc_2s"), "PVC-2S");
    EXPECT_EQ(shard::canonical_device_name("A100"), "A100");
    EXPECT_EQ(shard::canonical_device_name("h100"), "H100");
    EXPECT_THROW(shard::canonical_device_name("mi300"), bl::error);

    const std::vector<std::string> names =
        shard::parse_device_list("pvc1s, pvc2s,a100");
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "PVC-1S");
    EXPECT_EQ(names[1], "PVC-2S");
    EXPECT_EQ(names[2], "A100");
    EXPECT_THROW(shard::parse_device_list(""), bl::error);
    EXPECT_THROW(shard::parse_device_list("pvc1s,bogus"), bl::error);
}

TEST(ShardRegistry, UniformEnumerationKeepsBasePolicyVerbatim)
{
    const xpu::exec_policy base = xpu::make_sycl_policy();
    const shard::registry reg = shard::registry::uniform(3, "pvc1s", base);
    ASSERT_EQ(reg.size(), 3);
    for (index_type s = 0; s < reg.size(); ++s) {
        const shard::device_entry& e = reg.at(s);
        EXPECT_EQ(e.id, s);
        EXPECT_EQ(e.spec.name, "PVC-1S");
        EXPECT_FALSE(e.explicit_device);
        // Uniform shards must behave exactly like the unsharded service:
        // no launch-cost emulation is grafted on.
        EXPECT_DOUBLE_EQ(e.policy.emulated_launch_us,
                         base.emulated_launch_us);
        EXPECT_DOUBLE_EQ(e.policy.emulated_replay_us,
                         base.emulated_replay_us);
    }
    EXPECT_THROW(reg.at(3), bl::error);
    EXPECT_THROW(reg.at(-1), bl::error);
}

TEST(ShardRegistry, FromNamesAppliesDeviceLaunchCosts)
{
    const xpu::exec_policy base = xpu::make_sycl_policy();
    shard::registry reg =
        shard::registry::from_names({"pvc1s", "pvc2s"}, base);
    ASSERT_EQ(reg.size(), 2);
    const perf::device_spec p1 = perf::pvc_1s();
    const perf::device_spec p2 = perf::pvc_2s();
    EXPECT_TRUE(reg.at(0).explicit_device);
    EXPECT_EQ(reg.at(0).spec.name, p1.name);
    EXPECT_DOUBLE_EQ(reg.at(0).policy.emulated_launch_us,
                     p1.kernel_launch_us);
    EXPECT_DOUBLE_EQ(reg.at(0).policy.emulated_replay_us,
                     p1.graph_replay_us);
    EXPECT_DOUBLE_EQ(reg.at(0).policy.emulated_record_us,
                     p1.graph_finalize_us);
    EXPECT_EQ(reg.at(1).spec.name, p2.name);
    EXPECT_DOUBLE_EQ(reg.at(1).policy.emulated_launch_us,
                     p2.kernel_launch_us);
    // Kernel-behavior fields stay the base policy's — the bit-identity
    // guarantee across placements.
    EXPECT_EQ(reg.at(0).policy.allowed_sub_group_sizes,
              base.allowed_sub_group_sizes);
    EXPECT_EQ(reg.at(1).policy.allowed_sub_group_sizes,
              base.allowed_sub_group_sizes);

    // The standalone per-shard queue is lazily built, then stable.
    xpu::queue& q0 = reg.queue(0);
    EXPECT_EQ(&q0, &reg.queue(0));
    EXPECT_NE(&q0, &reg.queue(1));
}

TEST(ShardRouter, DeterministicForEqualCostShards)
{
    const shard::router router({perf::pvc_1s(), perf::pvc_1s()});
    bool hit_shard[2] = {false, false};
    for (std::uint64_t key = 1; key <= 64; ++key) {
        const index_type first = router.route(key, 16, 46);
        for (int repeat = 0; repeat < 3; ++repeat) {
            EXPECT_EQ(router.route(key, 16, 46), first);
        }
        hit_shard[first] = true;
    }
    // Rendezvous hashing spreads distinct keys over both shards.
    EXPECT_TRUE(hit_shard[0]);
    EXPECT_TRUE(hit_shard[1]);
}

TEST(ShardRouter, CostModelTracksDeviceBandwidthAndLaunchCost)
{
    // Large batches are bandwidth-bound: the two-stack part must price
    // them toward the paper's 1.8-1.9x stack scaling (§4.2), not the
    // ideal 2x. The shape must stream milliseconds of bytes to dominate
    // PVC-2S's 75us implicit-scaling launch overhead.
    const std::int64_t big_1s =
        shard::router::estimate_cost_ns(perf::pvc_1s(), 16384, 256, 768);
    const std::int64_t big_2s =
        shard::router::estimate_cost_ns(perf::pvc_2s(), 16384, 256, 768);
    const double ratio =
        static_cast<double>(big_1s) / static_cast<double>(big_2s);
    EXPECT_GT(ratio, 1.6);
    EXPECT_LT(ratio, 1.95);

    // A single tiny system is launch-bound: the implicit-scaling split
    // overhead makes the two-stack part the *worse* home for it.
    EXPECT_LT(shard::router::estimate_cost_ns(perf::pvc_1s(), 1, 8, 22),
              shard::router::estimate_cost_ns(perf::pvc_2s(), 1, 8, 22));

    // Faster devices win proportionally more keys. The router weighs one
    // system of the key's shape, so a system streaming as many bytes as
    // the 16384-item batch above is bandwidth-bound too.
    const shard::router mixed({perf::pvc_1s(), perf::pvc_2s()});
    int won_by_2s = 0;
    for (std::uint64_t key = 1; key <= 512; ++key) {
        if (mixed.route(key, 16384 * 256, 16384 * 768) == 1) {
            ++won_by_2s;
        }
    }
    EXPECT_GT(won_by_2s, 256);
}

TEST(ShardRouter, MixedFleetPlacesAKeyAlikeAtEveryItemCount)
{
    // On a mixed fleet the cost ratio between devices moves with the item
    // count (launch-bound for one system, bandwidth-bound for many), so a
    // weight taken from the request's own size would split one key's
    // requests across shards and they would never fuse. Every item count
    // of a key must land on one shard. Driven through the service: the
    // router itself takes no item count.
    serve::service_config cfg;
    cfg.shard_devices = {"pvc1s", "a100"};
    cfg.workers = 1;
    cfg.max_wait = microseconds(0);
    serve::solve_service service(xpu::make_sycl_policy(), cfg);
    bool hit_shard[2] = {false, false};
    for (index_type k = 0; k < 400; ++k) {
        // The iteration cap is part of the coalesce key: one key per k.
        solver::solve_options opts = cg_opts();
        opts.criterion = bl::stop::relative(1e-8, 100 + k);
        const serve::service_stats before = service.stats();
        for (const index_type items : {1, 8, 32}) {
            service
                .submit(make_request(work::stencil_3pt<double>(items, 16, 5),
                                     opts, static_cast<std::uint64_t>(k)))
                .get();
        }
        const serve::service_stats after = service.stats();
        for (std::size_t s = 0; s < 2; ++s) {
            const std::uint64_t routed = after.shards[s].routed_requests -
                                         before.shards[s].routed_requests;
            EXPECT_TRUE(routed == 0 || routed == 3)
                << "key " << k << " split: " << routed
                << " of 3 item counts on shard " << s;
            hit_shard[s] = hit_shard[s] || routed > 0;
        }
    }
    EXPECT_TRUE(hit_shard[0]);
    EXPECT_TRUE(hit_shard[1]);
}

TEST(ShardBreaker, TripsAndCoolsDownIndependently)
{
    shard::breaker brk;
    // Two healthy observations, then a faulted window: 2/4 = 0.5 ratio.
    EXPECT_FALSE(brk.observe(false, 0.5, 4, 3));
    EXPECT_FALSE(brk.observe(false, 0.5, 4, 3));
    EXPECT_FALSE(brk.observe(true, 0.5, 4, 3));
    EXPECT_TRUE(brk.observe(true, 0.5, 4, 3));
    EXPECT_TRUE(brk.active());
    EXPECT_TRUE(brk.suspended.load());
    EXPECT_EQ(brk.trips, 1u);
    // Cooldown counts down one launch per observation, window frozen.
    EXPECT_FALSE(brk.observe(true, 0.5, 4, 3));
    EXPECT_FALSE(brk.observe(false, 0.5, 4, 3));
    EXPECT_TRUE(brk.active());
    EXPECT_FALSE(brk.observe(false, 0.5, 4, 3));
    EXPECT_FALSE(brk.active());
    EXPECT_FALSE(brk.suspended.load());
    // A healthy window after recovery does not re-trip.
    for (int i = 0; i < 4; ++i) {
        EXPECT_FALSE(brk.observe(false, 0.5, 4, 3));
    }
    EXPECT_EQ(brk.trips, 1u);
}

TEST(ShardBreaker, CooldownFreezesTheWindowAgainstReTrips)
{
    // Design contract: faults observed DURING cooldown never re-trip or
    // extend it — the window is frozen, each observation only counts the
    // cooldown down. A breaker that re-armed on in-cooldown faults could
    // latch a shard into solo mode forever off one bad burst. Re-tripping
    // requires a fresh post-cooldown window to fault on its own.
    shard::breaker brk;
    // Trip on a fully faulted 2-wide window at ratio 0.6, cooldown 3.
    EXPECT_FALSE(brk.observe(true, 0.6, 2, 3));
    EXPECT_TRUE(brk.observe(true, 0.6, 2, 3));
    EXPECT_EQ(brk.trips, 1u);
    // Every in-cooldown observation faults; none re-trips, none extends.
    EXPECT_FALSE(brk.observe(true, 0.6, 2, 3));
    EXPECT_FALSE(brk.observe(true, 0.6, 2, 3));
    EXPECT_TRUE(brk.active());
    EXPECT_FALSE(brk.observe(true, 0.6, 2, 3));
    EXPECT_FALSE(brk.active());
    EXPECT_EQ(brk.trips, 1u);
    // The frozen window carried nothing over: the post-cooldown window
    // closes at 1/2 = 0.5 < 0.6 and does NOT re-trip. Had the three
    // in-cooldown faults leaked into it, 4/5 = 0.8 would have.
    EXPECT_FALSE(brk.observe(true, 0.6, 2, 3));
    EXPECT_FALSE(brk.observe(false, 0.6, 2, 3));
    EXPECT_FALSE(brk.active());
    EXPECT_EQ(brk.trips, 1u);
    // A fresh window faulting on its own re-trips legitimately.
    EXPECT_FALSE(brk.observe(true, 0.6, 2, 3));
    EXPECT_TRUE(brk.observe(true, 0.6, 2, 3));
    EXPECT_EQ(brk.trips, 2u);
    EXPECT_TRUE(brk.active());
}

TEST(ShardServe, BitIdenticalAcrossShardCounts)
{
    for (const xpu::launch_mode mode : oracle::kLaunchModes) {
        for (const index_type shards : {1, 2, 4}) {
            oracle::check_serve_path({mode, shards, 2, microseconds(200)},
                                     static_cast<std::uint64_t>(20 + shards));
        }
    }
}

TEST(ShardServe, BitIdenticalUnderInjectedPerShardFaults)
{
    // Every shard's workers fail single launches on a schedule; every
    // execution recovers on retry, and replies stay bit-identical.
    for (const xpu::launch_mode mode : oracle::kLaunchModes) {
        for (const index_type shards : {2, 4}) {
            oracle::check_serve_path(
                {mode, shards, 2, microseconds(200), true},
                static_cast<std::uint64_t>(30 + shards));
        }
    }
}

TEST(ShardServe, PerShardFaultsIsolateAndBreakerTripsAlone)
{
    serve::service_config probe_cfg;
    probe_cfg.shards = 2;
    probe_cfg.workers = 1;
    serve::solve_service probe(xpu::make_sycl_policy(), probe_cfg);
    const index_type faulty = affine_shard_for(probe, 16, 11);
    // Find a second pattern living on the other shard, so the healthy
    // shard demonstrably keeps serving while its neighbor faults.
    index_type healthy_rows = 0;
    for (index_type rows = 20; rows <= 96; rows += 4) {
        if (affine_shard_for(probe, rows, 11) != faulty) {
            healthy_rows = rows;
            break;
        }
    }
    ASSERT_GT(healthy_rows, 0) << "no pattern routed to the second shard";
    probe.stop();

    serve::service_config cfg;
    cfg.shards = 2;
    cfg.workers = 1;
    cfg.breaker_window = 4;
    cfg.breaker_cooldown = 4;
    cfg.shard_faults.resize(2);
    cfg.shard_faults[static_cast<std::size_t>(faulty)] =
        even_launch_faults(64);
    serve::solve_service service(xpu::make_sycl_policy(), cfg);

    for (int i = 0; i < 12; ++i) {
        serve::solve_reply<double> on_faulty =
            service
                .submit(make_request(work::stencil_3pt<double>(1, 16, 11),
                                     cg_opts(), 900 + i))
                .get();
        EXPECT_EQ(on_faulty.status, serve::request_status::ok);
        serve::solve_reply<double> on_healthy =
            service
                .submit(make_request(
                    work::stencil_3pt<double>(1, healthy_rows, 11),
                    cg_opts(), 950 + i))
                .get();
        EXPECT_EQ(on_healthy.status, serve::request_status::ok);
    }

    const serve::service_stats s = service.stats();
    const auto f = static_cast<std::size_t>(faulty);
    const std::size_t h = f == 0 ? 1 : 0;
    EXPECT_GE(s.shards[f].launch_faults, 8u);
    EXPECT_EQ(s.shards[h].launch_faults, 0u);
    EXPECT_GE(s.shards[f].breaker_trips, 1u);
    EXPECT_EQ(s.shards[h].breaker_trips, 0u);
    EXPECT_GE(s.shards[h].completed_systems, 12u);
    EXPECT_EQ(s.failed_requests, 0u);
    // Globals aggregate the per-shard truth.
    EXPECT_EQ(s.breaker_trips, s.shards[f].breaker_trips);
    EXPECT_EQ(s.launch_faults,
              s.shards[0].launch_faults + s.shards[1].launch_faults);
}

TEST(ShardServe, WorkStealingRebalancesAHotKey)
{
    serve::service_config cfg;
    cfg.shards = 2;
    cfg.workers = 1;
    cfg.max_batch = 8;
    cfg.max_wait = microseconds(100);
    cfg.max_queue_systems = 8192;
    serve::solve_service service(xpu::make_sycl_policy(), cfg);

    // One hot key: every request shares the pattern and the options.
    oracle::request_case c;
    c.pc = oracle::ptype::jacobi;
    c.rows = 16;
    std::vector<oracle::request_case> cases;
    std::vector<oracle::outcome> got;
    std::uint64_t steals = 0;
    for (int wave = 0; wave < 100 && steals == 0; ++wave) {
        std::vector<serve::solve_ticket<double>> tickets;
        tickets.reserve(64);
        for (int i = 0; i < 64; ++i) {
            c.seed = static_cast<std::uint64_t>(wave * 64 + i);
            cases.push_back(c);
            tickets.push_back(service.submit(oracle::request_of<double>(c)));
        }
        for (serve::solve_ticket<double>& ticket : tickets) {
            serve::solve_reply<double> reply = ticket.get();
            EXPECT_EQ(reply.status, serve::request_status::ok);
            got.push_back(oracle::outcome_of(reply.x, std::move(reply.log)));
        }
        steals = service.stats().steals;
    }
    // Replies resolve before the workers' locked bookkeeping; drain
    // settles the books before the consistency checks below.
    service.drain();
    const serve::service_stats s = service.stats();
    const std::uint64_t total = cases.size();
    EXPECT_GE(s.steals, 1u);
    EXPECT_EQ(s.completed_systems, total);
    // Placement never splits the key: every request went to its affine
    // shard, and only stealing moved work to the other one.
    EXPECT_EQ(std::max(s.shards[0].routed_requests,
                       s.shards[1].routed_requests),
              total);
    EXPECT_EQ(std::min(s.shards[0].routed_requests,
                       s.shards[1].routed_requests),
              0u);
    // Every system completed exactly once, on whichever shard executed it
    // (the scheduler may let one shard's worker do all the executing —
    // including the stolen work — so no claim is made about which shard
    // ran what, only that the books balance).
    EXPECT_EQ(s.shards[0].completed_systems + s.shards[1].completed_systems,
              total);
    EXPECT_EQ(s.shards[0].steals + s.shards[1].steals, s.steals);
    EXPECT_GE(s.shards[0].stolen_systems + s.shards[1].stolen_systems, 1u);
    // Stolen or not, every reply is bit-identical to its solo solve.
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const std::string where = oracle::describe(cases[i]);
        oracle::expect_same(oracle::solo<double>(cases[i], where), got[i],
                            c.rows, where);
    }
}

TEST(ShardServe, PerShardStatsAreConsistentAfterDrain)
{
    serve::service_config cfg;
    cfg.shards = 2;
    cfg.workers = 1;
    cfg.max_batch = 8;
    serve::solve_service service(xpu::make_sycl_policy(), cfg);

    std::vector<serve::solve_ticket<double>> tickets;
    for (int i = 0; i < 20; ++i) {
        const index_type rows = 16 + 8 * (i % 4);
        tickets.push_back(service.submit(
            make_request(work::stencil_3pt<double>(2, rows, 33), cg_opts(),
                         static_cast<std::uint64_t>(i))));
    }
    for (serve::solve_ticket<double>& ticket : tickets) {
        EXPECT_EQ(ticket.get().status, serve::request_status::ok);
    }
    service.drain();

    const serve::service_stats s = service.stats();
    ASSERT_EQ(s.shards.size(), 2u);
    std::uint64_t routed_requests = 0;
    std::uint64_t routed_systems = 0;
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;
    for (const serve::shard_stats& ss : s.shards) {
        EXPECT_EQ(ss.device, "PVC-1S");
        EXPECT_EQ(ss.queue_depth_systems, 0u);
        EXPECT_FALSE(ss.breaker_active);
        routed_requests += ss.routed_requests;
        routed_systems += ss.routed_systems;
        completed += ss.completed_systems;
        batches += ss.batches_launched;
        if (ss.batches_launched > 0) {
            EXPECT_GT(ss.modeled_busy_seconds, 0.0);
        }
    }
    EXPECT_EQ(routed_requests, s.submitted_requests);
    EXPECT_EQ(routed_systems, s.submitted_systems);
    EXPECT_EQ(completed, s.completed_systems);
    EXPECT_EQ(completed, 40u);
    EXPECT_EQ(batches, s.batches_launched);
    EXPECT_EQ(s.queue_depth_systems, 0u);
}

TEST(ShardServe, GraphReplayShardsServeAndStayConsistent)
{
    xpu::exec_policy policy = xpu::make_sycl_policy();
    policy.launch_mode = xpu::launch_mode::graph_replay;
    serve::service_config cfg;
    cfg.shards = 2;
    cfg.workers = 1;
    cfg.max_batch = 16;
    cfg.max_queue_systems = 8192;
    serve::solve_service service(policy, cfg);
    ASSERT_EQ(service.launch_mode(), xpu::launch_mode::graph_replay);

    std::vector<serve::solve_ticket<double>> tickets;
    for (int i = 0; i < 128; ++i) {
        const index_type rows = (i % 2) == 0 ? 16 : 24;
        tickets.push_back(service.submit(
            make_request(work::stencil_3pt<double>(1, rows, 44), cg_opts(),
                         static_cast<std::uint64_t>(i))));
    }
    for (serve::solve_ticket<double>& ticket : tickets) {
        EXPECT_EQ(ticket.get().status, serve::request_status::ok);
    }
    service.drain();

    const serve::service_stats s = service.stats();
    ASSERT_EQ(s.shards.size(), 2u);
    EXPECT_EQ(s.completed_systems, 128u);
    EXPECT_EQ(s.shards[0].completed_systems + s.shards[1].completed_systems,
              128u);
    EXPECT_EQ(s.queue_depth_systems, 0u);
    // Every fused launch on either shard is a graph submission.
    EXPECT_EQ(s.replays, s.batches_launched);
    service.stop();
}
