// Robustness layer tests (PR 10): the device-loss fault model
// (`xpu::fault_kind::device_lost` / `hang`), serve-side failover (lane
// eviction, ring drain + migration, the hang watchdog, half-open
// probing), overload degradation (priority shedding and deadline
// enforcement), and the seeded chaos soak that mixes all of it
// with sustained overload and asserts zero lost tickets, balanced books,
// and bit-identity of successful solves against solo references.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "batchlin/batchlin.hpp"
#include "oracle.hpp"
#include "shard/lane.hpp"

namespace bl = batchlin;
namespace mat = batchlin::mat;
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

/// Which shard of a clean service with the given layout the stencil
/// pattern (items=1, rows) routes to. The router is deterministic in
/// (key, specs), so the answer transfers to a same-layout service with
/// fault plans installed.
index_type affine_shard_for(index_type shards, index_type rows,
                            std::uint64_t seed)
{
    serve::service_config cfg;
    cfg.shards = shards;
    cfg.workers = 1;
    serve::solve_service service(xpu::make_sycl_policy(), cfg);
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

// --- fault model -----------------------------------------------------

TEST(FaultPlan, DeviceLostIsStickyAcrossItsInterval)
{
    xpu::exec_policy policy = xpu::make_sycl_policy();
    xpu::fault_event ev;
    ev.kind = xpu::fault_kind::device_lost;
    ev.launch = 2;
    ev.revive = 5;
    policy.faults.events.push_back(ev);
    xpu::queue q(policy);

    const auto a = work::stencil_3pt<double>(1, 16, 3);
    const auto b = work::random_rhs<double>(1, 16, 4);
    const solver::batch_matrix<double> variant = a;
    auto solve_once = [&] {
        mat::batch_dense<double> x(1, 16, 1);
        solver::solve(q, variant, b, x, cg_opts());
    };
    // Launches 0 and 1 precede the loss.
    EXPECT_NO_THROW(solve_once());
    EXPECT_NO_THROW(solve_once());
    // Launches 2, 3, 4 land in [2, 5): sticky, every retry fails.
    EXPECT_THROW(solve_once(), xpu::device_error);
    EXPECT_THROW(solve_once(), xpu::device_error);
    EXPECT_THROW(solve_once(), xpu::device_error);
    // Launch 5 is past the revival index.
    EXPECT_NO_THROW(solve_once());
}

TEST(FaultPlan, DeviceLostWithoutRevivalNeverComesBack)
{
    xpu::exec_policy policy = xpu::make_sycl_policy();
    xpu::fault_event ev;
    ev.kind = xpu::fault_kind::device_lost;
    ev.launch = 1;
    ev.revive = 0;  // lost forever
    policy.faults.events.push_back(ev);
    xpu::queue q(policy);

    const auto a = work::stencil_3pt<double>(1, 16, 3);
    const auto b = work::random_rhs<double>(1, 16, 4);
    const solver::batch_matrix<double> variant = a;
    auto solve_once = [&] {
        mat::batch_dense<double> x(1, 16, 1);
        solver::solve(q, variant, b, x, cg_opts());
    };
    EXPECT_NO_THROW(solve_once());
    for (int i = 0; i < 8; ++i) {
        EXPECT_THROW(solve_once(), xpu::device_error);
    }
}

TEST(FaultPlan, HangBlocksForItsDurationThenThrows)
{
    xpu::exec_policy policy = xpu::make_sycl_policy();
    xpu::fault_event ev;
    ev.kind = xpu::fault_kind::hang;
    ev.launch = 0;
    ev.hang_us = 2000;
    policy.faults.events.push_back(ev);
    xpu::queue q(policy);

    const auto a = work::stencil_3pt<double>(1, 16, 3);
    const auto b = work::random_rhs<double>(1, 16, 4);
    const solver::batch_matrix<double> variant = a;
    mat::batch_dense<double> x(1, 16, 1);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(solver::solve(q, variant, b, x, cg_opts()),
                 xpu::device_error);
    const auto blocked = std::chrono::steady_clock::now() - t0;
    EXPECT_GE(blocked, microseconds(2000));
    // The hang hits exactly launch 0; the next launch is clean.
    EXPECT_NO_THROW(solver::solve(q, variant, b, x, cg_opts()));
}

TEST(FaultPlan, ToStringCoversTheNewKinds)
{
    EXPECT_EQ(xpu::to_string(xpu::fault_kind::device_lost), "device_lost");
    EXPECT_EQ(xpu::to_string(xpu::fault_kind::hang), "hang");
}

// --- lane guard state machine ----------------------------------------

TEST(LaneGuard, EvictProbeReviveStateMachine)
{
    shard::lane_guard guard;
    EXPECT_EQ(guard.current(), shard::lane_state::healthy);
    EXPECT_TRUE(guard.available());

    // Only one eviction wins; re-evicting an evicted lane is a no-op.
    EXPECT_TRUE(guard.try_evict());
    EXPECT_FALSE(guard.try_evict());
    EXPECT_EQ(guard.current(), shard::lane_state::evicted);
    EXPECT_FALSE(guard.available());
    EXPECT_EQ(guard.evictions.load(), 1u);

    // One probe at a time: the second claimant is refused.
    EXPECT_TRUE(guard.try_begin_probe());
    EXPECT_FALSE(guard.try_begin_probe());
    EXPECT_EQ(guard.current(), shard::lane_state::probing);
    EXPECT_FALSE(guard.available());

    // A failed probe re-trips to evicted; the next probe may succeed.
    guard.probe_failed();
    EXPECT_EQ(guard.current(), shard::lane_state::evicted);
    EXPECT_TRUE(guard.try_begin_probe());
    guard.probe_succeeded();
    EXPECT_EQ(guard.current(), shard::lane_state::healthy);
    EXPECT_TRUE(guard.available());
    EXPECT_EQ(guard.probes.load(), 2u);
    EXPECT_EQ(guard.probe_failures.load(), 1u);
    EXPECT_EQ(guard.probe_successes.load(), 1u);

    // An available lane cannot enter probing without an eviction first.
    EXPECT_FALSE(guard.try_begin_probe());
}

// --- deterministic failover ------------------------------------------

TEST(Failover, DeviceLossMigratesWorkToSurvivorsBitIdentically)
{
    const index_type rows = 24;
    const index_type victim = affine_shard_for(2, rows, 40);

    serve::service_config cfg;
    cfg.shards = 2;
    cfg.workers = 1;
    cfg.max_batch = 4;
    cfg.max_wait = microseconds(100);
    cfg.launch_retries = 1;
    cfg.retry_backoff = microseconds(0);
    cfg.failover = true;
    cfg.probe_interval = microseconds(200);
    cfg.shard_faults.resize(2);
    xpu::fault_event lost;
    lost.kind = xpu::fault_kind::device_lost;
    lost.launch = 0;
    lost.revive = 0;  // never comes back
    cfg.shard_faults[static_cast<std::size_t>(victim)].events.push_back(
        lost);
    serve::solve_service service(xpu::make_sycl_policy(), cfg);

    std::vector<serve::solve_ticket<double>> tickets;
    for (int i = 0; i < 6; ++i) {
        tickets.push_back(service.submit(
            make_request(work::stencil_3pt<double>(2, rows, 40),
                         cg_opts(), 70)));
    }
    const oracle::outcome want = oracle::solo(make_request(
        work::stencil_3pt<double>(2, rows, 40), cg_opts(), 70));
    for (auto& ticket : tickets) {
        serve::solve_reply<double> reply = ticket.get();
        ASSERT_EQ(reply.status, serve::request_status::ok) << reply.error;
        oracle::expect_same(want,
                            oracle::outcome_of(reply.x, std::move(reply.log)),
                            rows, "migrated off the dead lane");
    }
    service.stop();

    const serve::service_stats s = service.stats();
    EXPECT_GE(s.evictions, 1u);
    EXPECT_GE(s.migrations, 1u);
    EXPECT_GE(s.migrated_systems, 2u);
    // The dead lane never completed anything; the survivor did all of it.
    const auto& dead = s.shards[static_cast<std::size_t>(victim)];
    const auto& alive = s.shards[static_cast<std::size_t>(1 - victim)];
    EXPECT_EQ(dead.completed_systems, 0u);
    EXPECT_EQ(alive.completed_systems, 12u);
    EXPECT_GE(dead.migrated_requests, 1u);
    EXPECT_NE(dead.state, "healthy");
    // The exhausted fused attempt (1 + 1 retry) evicts the lane before
    // any solo degradation could run on it.
    EXPECT_EQ(s.degraded_launches, 0u);
    EXPECT_EQ(s.launch_faults, 2u);
    // Books balance once everything resolved.
    EXPECT_EQ(s.queue_depth_systems, 0u);
    EXPECT_EQ(s.submitted_requests,
              s.completed_requests + s.rejected_requests +
                  s.expired_requests + s.failed_requests);
}

TEST(Failover, SuccessfulProbeRestoresARevivedLane)
{
    const index_type rows = 24;
    const index_type victim = affine_shard_for(2, rows, 40);

    serve::service_config cfg;
    cfg.shards = 2;
    cfg.workers = 1;
    cfg.max_batch = 4;
    cfg.max_wait = microseconds(100);
    cfg.launch_retries = 1;
    cfg.retry_backoff = microseconds(0);
    cfg.failover = true;
    cfg.probe_interval = microseconds(100);
    cfg.shard_faults.resize(2);
    // Lost from its very first launch; launches 0 and 1 (the fused
    // attempt and its retry) fail and evict the lane, probes are
    // launches 2 and 3 — the second probe lands past the revival index.
    xpu::fault_event lost;
    lost.kind = xpu::fault_kind::device_lost;
    lost.launch = 0;
    lost.revive = 3;
    cfg.shard_faults[static_cast<std::size_t>(victim)].events.push_back(
        lost);
    serve::solve_service service(xpu::make_sycl_policy(), cfg);

    // First wave: dies on the victim, fails over, revives via probes.
    std::vector<serve::solve_ticket<double>> tickets;
    for (int i = 0; i < 4; ++i) {
        tickets.push_back(service.submit(
            make_request(work::stencil_3pt<double>(2, rows, 40),
                         cg_opts(), 70)));
    }
    for (auto& ticket : tickets) {
        ASSERT_EQ(ticket.get().status, serve::request_status::ok);
    }
    // Give the evicted worker time to run its half-open probes, then
    // keep submitting until the lane reports healthy again.
    bool healthy = false;
    for (int round = 0; round < 200 && !healthy; ++round) {
        std::this_thread::sleep_for(microseconds(500));
        ASSERT_EQ(service
                      .submit(make_request(
                          work::stencil_3pt<double>(2, rows, 40),
                          cg_opts(), 70))
                      .get()
                      .status,
                  serve::request_status::ok);
        healthy = service.stats()
                      .shards[static_cast<std::size_t>(victim)]
                      .state == "healthy";
    }
    EXPECT_TRUE(healthy) << "lane never revived";
    // The loop's last submit may have been routed an instant before the
    // probe flipped the lane healthy; send one more now that it is, so
    // the victim deterministically serves post-revival traffic.
    ASSERT_EQ(service
                  .submit(make_request(work::stencil_3pt<double>(2, rows, 40),
                                       cg_opts(), 70))
                  .get()
                  .status,
              serve::request_status::ok);
    service.stop();

    const serve::service_stats s = service.stats();
    EXPECT_GE(s.evictions, 1u);
    EXPECT_GE(s.probes, 1u);
    EXPECT_GE(s.probe_successes, 1u);
    // The revived lane served traffic again after its probe.
    EXPECT_GT(s.shards[static_cast<std::size_t>(victim)].completed_systems,
              0u);
}

TEST(Failover, WatchdogEvictsAWedgedLaneAndDrainsItsQueue)
{
    const index_type rows = 24;
    const index_type victim = affine_shard_for(2, rows, 40);

    serve::service_config cfg;
    cfg.shards = 2;
    cfg.workers = 1;
    cfg.max_batch = 2;  // the wedged batch cannot absorb the queue
    cfg.max_wait = microseconds(0);
    cfg.launch_retries = 1;
    cfg.retry_backoff = microseconds(0);
    cfg.failover = true;
    cfg.watchdog_interval = microseconds(300);
    cfg.hang_timeout = microseconds(2000);
    cfg.probe_interval = microseconds(100);
    cfg.shard_faults.resize(2);
    xpu::fault_event wedge;
    wedge.kind = xpu::fault_kind::hang;
    wedge.launch = 0;
    wedge.hang_us = 20000;  // well past the watchdog timeout
    cfg.shard_faults[static_cast<std::size_t>(victim)].events.push_back(
        wedge);
    serve::solve_service service(xpu::make_sycl_policy(), cfg);

    // One batch wedges the victim's only worker; the rest queues behind
    // it and must be failed over by the watchdog, not the worker.
    std::vector<serve::solve_ticket<double>> tickets;
    for (int i = 0; i < 8; ++i) {
        tickets.push_back(service.submit(
            make_request(work::stencil_3pt<double>(2, rows, 40),
                         cg_opts(), 70)));
    }
    for (auto& ticket : tickets) {
        serve::solve_reply<double> reply = ticket.get();
        ASSERT_EQ(reply.status, serve::request_status::ok) << reply.error;
    }
    service.stop();

    const serve::service_stats s = service.stats();
    EXPECT_GE(s.watchdog_evictions, 1u);
    EXPECT_GE(s.evictions, 1u);
    EXPECT_EQ(s.completed_requests, 8u);
    EXPECT_EQ(s.queue_depth_systems, 0u);
}

TEST(Failover, DeadlinePassedDuringFailoverExpiresAtRequeue)
{
    const index_type rows = 24;
    const index_type victim = affine_shard_for(2, rows, 40);

    serve::service_config cfg;
    cfg.shards = 2;
    cfg.workers = 1;
    cfg.max_batch = 4;
    cfg.max_wait = microseconds(0);
    cfg.launch_retries = 1;
    // Back off longer than the deadline: by the time the retries
    // exhaust and the entry reaches the failover re-queue checkpoint,
    // its deadline has passed.
    cfg.retry_backoff = std::chrono::microseconds(20000);
    cfg.max_retry_backoff = std::chrono::microseconds(20000);
    cfg.failover = true;
    cfg.shard_faults.resize(2);
    xpu::fault_event lost;
    lost.kind = xpu::fault_kind::device_lost;
    lost.launch = 0;
    lost.revive = 0;
    cfg.shard_faults[static_cast<std::size_t>(victim)].events.push_back(
        lost);
    serve::solve_service service(xpu::make_sycl_policy(), cfg);

    serve::solve_reply<double> reply =
        service
            .submit(make_request(work::stencil_3pt<double>(1, rows, 40),
                                 cg_opts(), 70, /*priority=*/1,
                                 /*deadline=*/microseconds(5000)))
            .get();
    EXPECT_EQ(reply.status, serve::request_status::expired);
    service.stop();
    EXPECT_GE(service.stats().expired_requests, 1u);
}

TEST(Failover, NoSurvivingLaneFailsWithStructuredError)
{
    serve::service_config cfg;
    cfg.shards = 2;
    cfg.workers = 1;
    cfg.max_batch = 4;
    cfg.max_wait = microseconds(0);
    cfg.launch_retries = 1;
    cfg.retry_backoff = microseconds(0);
    cfg.failover = true;
    cfg.probe_interval = std::chrono::microseconds(50000);
    xpu::fault_event lost;
    lost.kind = xpu::fault_kind::device_lost;
    lost.launch = 0;
    lost.revive = 0;
    xpu::fault_plan plan;
    plan.events.push_back(lost);
    cfg.shard_faults = {plan, plan};  // the whole fleet is gone
    serve::solve_service service(xpu::make_sycl_policy(), cfg);

    serve::solve_reply<double> reply =
        service
            .submit(make_request(work::stencil_3pt<double>(1, 24, 40),
                                 cg_opts(), 70))
            .get();
    EXPECT_EQ(reply.status, serve::request_status::failed);
    EXPECT_FALSE(reply.error.empty());
    service.stop();
    EXPECT_GE(service.stats().failed_requests, 1u);
}

// --- overload shedding ------------------------------------------------

TEST(Shedding, WatermarkShedsOnlyLowPriorityRequests)
{
    serve::service_config cfg;
    cfg.shards = 1;
    cfg.workers = 1;
    cfg.max_batch = 4;
    cfg.max_wait = microseconds(0);
    cfg.max_queue_systems = 64;
    cfg.shed_watermark = 0.0;  // every queued system is past the mark
    serve::solve_service service(xpu::make_sycl_policy(), cfg);

    // Sequential submits: with watermark 0 the first queued system
    // already puts the depth at the mark, so any later priority-0
    // submit that finds a nonempty queue is shed. Submit a burst and
    // count.
    std::vector<serve::solve_ticket<double>> low;
    std::vector<serve::solve_ticket<double>> high;
    for (int i = 0; i < 16; ++i) {
        low.push_back(service.submit(
            make_request(work::stencil_3pt<double>(2, 16, 5), cg_opts(),
                         9, /*priority=*/0)));
        high.push_back(service.submit(
            make_request(work::stencil_3pt<double>(2, 16, 5), cg_opts(),
                         9, /*priority=*/1)));
    }
    std::uint64_t shed = 0;
    for (auto& ticket : low) {
        serve::solve_reply<double> reply = ticket.get();
        if (reply.status == serve::request_status::rejected) {
            EXPECT_NE(reply.error.find("shed"), std::string::npos)
                << reply.error;
            ++shed;
        }
    }
    // Positive priority is never shed, only hard-bounded (the bound is
    // big enough here that it never engages).
    for (auto& ticket : high) {
        EXPECT_EQ(ticket.get().status, serve::request_status::ok);
    }
    service.stop();
    const serve::service_stats s = service.stats();
    EXPECT_EQ(s.shed_requests, shed);
    EXPECT_GE(shed, 1u);
    EXPECT_LE(s.shed_requests, s.rejected_requests);
}

// --- chaos soak -------------------------------------------------------

namespace {

struct soak_outcome {
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    std::uint64_t rejected_other = 0;
    std::uint64_t expired = 0;
    std::uint64_t failed = 0;
    std::uint64_t compared_systems = 0;
    serve::service_stats stats;
};

/// The chaos soak: a seeded request storm (open-loop submission, well
/// past the shed watermark) against a sharded service whose fault plans
/// mix sticky device loss with revival, a kernel hang, and NaN poison —
/// while failover and shedding are on. Every
/// ticket must resolve, the books must balance, and every solve that
/// completed ok must be bit-identical to a solo solve of the same
/// request (poisoned systems report non-converged and are excluded,
/// which the NaN poison mode guarantees).
soak_outcome run_chaos_soak(index_type shards,
                            std::vector<xpu::fault_plan> plans)
{
    constexpr index_type kItems = 4;
    constexpr int kRequests = 384;  // 1536 systems through the storm

    serve::service_config cfg;
    cfg.shards = shards;
    cfg.workers = 2;
    cfg.max_batch = 8;
    cfg.max_wait = microseconds(100);
    cfg.idle_flush = microseconds(10);
    cfg.max_queue_systems = 512;
    cfg.on_full = serve::overflow_policy::block;
    cfg.launch_retries = 1;
    cfg.retry_backoff = microseconds(0);
    cfg.failover = true;
    cfg.watchdog_interval = microseconds(300);
    // Well past any legitimate batch duration even in the instrumented
    // Debug builds (check.sh config 10 reruns this soak there): a
    // timeout near the honest batch time makes the watchdog evict
    // healthy lanes until no shard is left and the storm fails over
    // into errors instead of completions.
    cfg.hang_timeout = microseconds(20'000);
    // Two of the four shards are down at once for part of the storm (and
    // the instrumented builds stretch that overlap): entries legitimately
    // bounce between lanes more than the default shard-count cap before
    // a survivor holds them, so give the soak a deeper migration budget.
    cfg.max_migrations = 32;
    cfg.probe_interval = microseconds(200);
    cfg.shed_watermark = 32.0 / 512.0;
    cfg.shard_faults = std::move(plans);
    serve::solve_service service(xpu::make_sycl_policy(), cfg);

    // Deterministic request mix over a small combo set so each combo's
    // solo reference is computed once. Requests are pre-built so the
    // submission loop is a genuine burst (open-loop overload).
    struct combo {
        index_type rows;
        std::uint64_t mat_seed;
        std::uint64_t rhs_seed;
    };
    std::vector<combo> combos;
    for (const index_type rows : {16, 24, 32}) {
        for (std::uint64_t s = 0; s < 8; ++s) {
            combos.push_back({rows, 200 + s, 900 + s});
        }
    }
    std::vector<serve::solve_request<double>> requests;
    std::vector<std::size_t> combo_of;
    requests.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
        const std::size_t c =
            static_cast<std::size_t>(i) % combos.size();
        const combo& cb = combos[c];
        // Every 4th request is sheddable; every 16th carries a deadline
        // tight enough that sustained overload expires some of them.
        const int priority = (i % 4 == 0) ? 0 : 1;
        const microseconds deadline =
            (i % 16 == 7) ? microseconds(3000) : microseconds(0);
        requests.push_back(make_request(
            work::stencil_3pt<double>(kItems, cb.rows, cb.mat_seed),
            cg_opts(), cb.rhs_seed, priority, deadline));
        combo_of.push_back(c);
    }

    std::vector<serve::solve_ticket<double>> tickets;
    tickets.reserve(requests.size());
    for (auto& request : requests) {
        tickets.push_back(service.submit(std::move(request)));
    }

    // Zero lost tickets: every single ticket resolves.
    std::map<std::size_t, oracle::outcome> references;
    soak_outcome out;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        serve::solve_reply<double> reply = tickets[i].get();
        switch (reply.status) {
        case serve::request_status::ok: {
            ++out.ok;
            const combo& cb = combos[combo_of[i]];
            auto it = references.find(combo_of[i]);
            if (it == references.end()) {
                it = references
                         .emplace(combo_of[i],
                                  oracle::solo(make_request(
                                      work::stencil_3pt<double>(
                                          kItems, cb.rows, cb.mat_seed),
                                      cg_opts(), cb.rhs_seed)))
                         .first;
            }
            const std::vector<double>& want = it->second.x;
            for (index_type item = 0; item < kItems; ++item) {
                if (!reply.log.converged(item)) {
                    continue;  // poison strikes report non-converged
                }
                EXPECT_EQ(std::memcmp(reply.x.item_values(item),
                                      want.data() + item * cb.rows,
                                      sizeof(double) *
                                          static_cast<std::size_t>(
                                              cb.rows)),
                          0)
                    << "request " << i << " item " << item
                    << " diverged from the solo reference";
                ++out.compared_systems;
            }
            break;
        }
        case serve::request_status::rejected:
            if (reply.error.find("shed") != std::string::npos) {
                ++out.shed;
            } else {
                ++out.rejected_other;
            }
            break;
        case serve::request_status::expired:
            ++out.expired;
            break;
        case serve::request_status::failed:
            ++out.failed;
            break;
        }
    }
    // The storm can drain before a dead lane's probes walk its launch
    // counter to the revive index; probes keep running until stop(), so
    // give them time to bring the lane back before sealing the gate.
    const auto probe_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (service.stats().probe_successes == 0 &&
           std::chrono::steady_clock::now() < probe_deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    service.drain();
    service.stop();
    out.stats = service.stats();
    return out;
}

void assert_soak_invariants(const soak_outcome& out, index_type shards)
{
    const serve::service_stats& s = out.stats;
    std::printf("soak: ok=%llu shed=%llu rejected=%llu expired=%llu "
                "failed=%llu | evict=%llu migrate=%llu probe_ok=%llu\n",
                static_cast<unsigned long long>(out.ok),
                static_cast<unsigned long long>(out.shed),
                static_cast<unsigned long long>(out.rejected_other),
                static_cast<unsigned long long>(out.expired),
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(s.evictions),
                static_cast<unsigned long long>(s.migrations),
                static_cast<unsigned long long>(s.probe_successes));
    // Ticket conservation: submitted == resolved, by both the replies
    // we observed and the service's own counters.
    EXPECT_EQ(out.ok + out.shed + out.rejected_other + out.expired +
                  out.failed,
              384u);
    EXPECT_EQ(s.submitted_requests,
              s.completed_requests + s.rejected_requests +
                  s.expired_requests + s.failed_requests);
    EXPECT_EQ(s.completed_requests, out.ok);
    EXPECT_EQ(s.shed_requests, out.shed);

    // The storm was big enough to count as a soak.
    EXPECT_GE(s.submitted_systems, 1000u);
    EXPECT_GE(s.completed_systems, 1000u);
    EXPECT_GE(out.compared_systems, 1000u);

    // Chaos actually happened: the dead lane was evicted, its work
    // migrated, a probe brought a revived lane back, and overload shed
    // low-priority work.
    EXPECT_GE(s.evictions, 1u);
    EXPECT_GE(s.migrations, 1u);
    EXPECT_GE(s.probes, 1u);
    EXPECT_GE(s.probe_successes, 1u);
    EXPECT_GE(s.shed_requests, 1u);
    EXPECT_GE(s.launch_faults, 1u);

    // Books balance after the drain: nothing queued on any lane (dead,
    // revived, or healthy).
    EXPECT_EQ(s.queue_depth_requests, 0u);
    EXPECT_EQ(s.queue_depth_systems, 0u);
    ASSERT_EQ(s.shards.size(), static_cast<std::size_t>(shards));
    for (const auto& ss : s.shards) {
        EXPECT_EQ(ss.queue_depth_systems, 0u) << "shard " << ss.shard;
    }

    // The machine-readable dump the soak harness and CI parse.
    const std::string json = s.to_json();
    EXPECT_NE(json.find("\"evictions\": "), std::string::npos);
    EXPECT_NE(json.find("\"shed_requests\": "), std::string::npos);
    EXPECT_NE(json.find("\"shards\": ["), std::string::npos);
}

}  // namespace

TEST(ChaosSoak, TwoShardsSurviveDeathRevivalHangAndOverload)
{
    std::vector<xpu::fault_plan> plans(2);
    // Shard 0: lost from launch 4 through 11 — the fused attempt at 4
    // and its retry at 5 fail and evict the lane, the probes walk the
    // counter to the revival index. Later, one launch wedges long
    // enough to trip the watchdog.
    xpu::fault_event lost;
    lost.kind = xpu::fault_kind::device_lost;
    lost.launch = 4;
    lost.revive = 12;
    plans[0].events.push_back(lost);
    xpu::fault_event wedge;
    wedge.kind = xpu::fault_kind::hang;
    wedge.launch = 40;
    wedge.hang_us = 30'000;  // well past the soak's 20 ms watchdog timeout
    plans[0].events.push_back(wedge);
    // Shard 1: transient NaN poison strikes (mode nan keeps poisoned
    // systems non-converged, preserving the bit-identity check).
    for (const std::uint64_t at : {6ull, 15ull, 33ull}) {
        xpu::fault_event poison;
        poison.kind = xpu::fault_kind::poison;
        poison.launch = at;
        poison.group = 0;
        poison.phase = 1;
        poison.target = xpu::fault_target::slm;
        poison.mode = xpu::poison_mode::nan;
        plans[1].events.push_back(poison);
    }

    const soak_outcome out = run_chaos_soak(2, std::move(plans));
    assert_soak_invariants(out, 2);
}

TEST(ChaosSoak, FourShardsSurviveTwoDeathsAndOverload)
{
    std::vector<xpu::fault_plan> plans(4);
    xpu::fault_event lost0;
    lost0.kind = xpu::fault_kind::device_lost;
    lost0.launch = 4;
    lost0.revive = 12;
    plans[0].events.push_back(lost0);
    // A second, longer outage on another shard (still revived so the
    // probe path is exercised on two lanes).
    xpu::fault_event lost2;
    lost2.kind = xpu::fault_kind::device_lost;
    lost2.launch = 6;
    lost2.revive = 24;
    plans[2].events.push_back(lost2);
    xpu::fault_event poison;
    poison.kind = xpu::fault_kind::poison;
    poison.launch = 9;
    poison.group = 0;
    poison.phase = 1;
    poison.target = xpu::fault_target::slm;
    poison.mode = xpu::poison_mode::nan;
    plans[3].events.push_back(poison);

    const soak_outcome out = run_chaos_soak(4, std::move(plans));
    assert_soak_invariants(out, 4);
}
