// Serve-throughput benchmark: solves/sec of serve::solve_service under a
// closed-loop traffic generator.
//
// The serving-layer claim mirrors the paper's device-side one (§3.4): many
// small systems fused into one launch amortize per-launch overhead. This
// bench measures it end to end through the service: N client threads each
// submit one single-system request, wait for the reply, and immediately
// submit the next (closed loop), sweeping the offered load (client count)
// against four service configurations — `batch1` (max_batch 1, no window:
// every request is its own launch), `coalesced` (dynamic batching with a
// real window), `graph_replay` (batching plus cached graph recordings:
// each fused launch is a rebind + replay at the device's graph-replay
// cost instead of a full eager submission), and `graph_replay_0us` (the
// same launch mode with no window on a device whose solver kernel stays
// resident: `emulated_replay_us = 0`). Headline numbers are the
// coalesced/batch1 speedup and the graph cells' speedup over coalesced at
// the highest offered load.
//
// Both modes run on an emulated device: the queue charges every launch the
// fixed submission cost of the modeled PVC stack (device_spec
// kernel_launch_us, 8 us) as wall time, because the simulator's native
// launch path costs well under a microsecond — far below any real SYCL
// runtime — and would under-state exactly the overhead that dynamic
// batching exists to amortize. Pass --launch-latency-us 0 for the
// pure-host numbers.
//
// Usage:
//   bench_serve_throughput [--json FILE] [--min-time SECONDS]
//                          [--launch-latency-us US]
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "perfmodel/device_spec.hpp"
#include "serve/service.hpp"
#include "util/timer.hpp"
#include "workload/stencil.hpp"

using namespace bench;
namespace serve = batchlin::serve;

namespace {

constexpr index_type kRows = 8;
constexpr int kClients[] = {4, 16, 64};
/// Outstanding requests per client (closed-loop window). A window above 1
/// keeps the admission queue non-empty across reply round-trips, which is
/// what lets the batcher see fusible work on a single-core host.
constexpr int kWindow = 4;

struct mode_spec {
    const char* name;
    index_type max_batch;
    std::chrono::microseconds max_wait;
    xpu::launch_mode launch{xpu::launch_mode::direct};
    /// Charge nothing per graph replay (a resident solver kernel) instead
    /// of the device's `graph_replay_us`.
    bool zero_replay = false;
};

// batch1 disables coalescing entirely: a service that launches one kernel
// per request, the single-shot baseline a caller without a batcher gets.
// coalesced keeps max_batch below the top offered load so that, at high
// load, a full batch is already queued when the leader scans and the
// launch happens without waiting out the window — the standard sizing
// rule for closed-loop dynamic batching. graph_replay_0us runs with no
// window: it launches whatever has accumulated, so under load the ring
// itself is the window (entries pile up while the previous batch solves).
constexpr mode_spec kModes[] = {
    {"batch1", 1, std::chrono::microseconds{0}},
    {"coalesced", 32, std::chrono::microseconds{300}},
    {"graph_replay", 32, std::chrono::microseconds{300},
     xpu::launch_mode::graph_replay},
    {"graph_replay_0us", 32, std::chrono::microseconds{0},
     xpu::launch_mode::graph_replay, true},
};

struct cell_result {
    double solves_per_sec = 0.0;
    double mean_batch = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    long requests = 0;
    unsigned long long recorded = 0;
    unsigned long long replays = 0;
    unsigned long long rebind_only = 0;
    /// Emulated cost of one graph replay the cell ran with.
    double replay_us = 0.0;
};

/// One cell of the shard-count sweep: the graph_replay service spread
/// over N explicit PVC-1S shards (each charging the modeled 8 us launch
/// and 1 us replay costs), under the same closed-loop traffic.
struct shard_cell_result {
    double wall_sps = 0.0;
    /// Aggregate modeled throughput: completed systems over the busiest
    /// shard's modeled device-busy time. On this single-core host every
    /// shard's work serializes onto one CPU, so wall time cannot show
    /// device scaling; the cost model applied to the launches that
    /// actually ran can (the same convention the launch-mode benches use
    /// for device-side costs).
    double modeled_sps = 0.0;
    double mean_batch = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    long requests = 0;
    unsigned long long steals = 0;
    double max_modeled_busy_seconds = 0.0;
    unsigned long long completed_systems = 0;
};

solver::solve_options bench_opts()
{
    solver::solve_options opts;
    opts.solver = solver::solver_type::cg;
    opts.preconditioner = precond::type::jacobi;
    opts.criterion = stop::relative(1e-6, 100);
    return opts;
}

/// Drives the closed-loop traffic against `service`: warms up 100 ms,
/// then counts completions over `min_time` seconds of wall clock.
void run_traffic(serve::solve_service& service, int clients,
                 double min_time, long& measured, double& elapsed)
{
    const solver::solve_options opts = bench_opts();
    std::atomic<bool> running{true};
    std::atomic<long> completed{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
        pool.emplace_back([&, c] {
            // Every client re-submits the same system; all clients share
            // one sparsity pattern and option set, so the coalesced mode
            // can fuse across clients.
            const mat::batch_csr<double> a = work::stencil_3pt<double>(
                1, kRows, 11 + static_cast<std::uint64_t>(c));
            const auto b = work::random_rhs<double>(
                1, kRows, 23 + static_cast<std::uint64_t>(c));
            // Pre-build the window's request payloads once; each reply
            // hands the storage back, so the steady-state loop recycles
            // it instead of re-copying matrices on every submit.
            std::vector<serve::solve_request<double>> pending;
            pending.reserve(kWindow);
            for (int w = 0; w < kWindow; ++w) {
                serve::solve_request<double> req;
                req.a = a;
                req.b = b;
                req.x = mat::batch_dense<double>(1, kRows, 1);
                req.opts = opts;
                pending.push_back(std::move(req));
            }
            std::vector<serve::solve_service::ticket<double>> window;
            window.reserve(kWindow);
            while (running.load(std::memory_order_relaxed)) {
                for (auto& req : pending) {
                    window.push_back(service.submit(std::move(req)));
                }
                pending.clear();
                for (auto& ticket : window) {
                    serve::solve_reply<double> reply = ticket.get();
                    if (reply.status == serve::request_status::ok) {
                        completed.fetch_add(1, std::memory_order_relaxed);
                    }
                    serve::solve_request<double> req;
                    req.a = std::move(reply.a);
                    req.b = std::move(reply.b);
                    req.x = std::move(reply.x);
                    req.x.fill(0.0);
                    req.opts = opts;
                    req.log = std::move(reply.log);
                    pending.push_back(std::move(req));
                }
                window.clear();
            }
        });
    }

    // Warm-up, then measure over a fresh counter interval.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const long warm = completed.load();
    wall_timer timer;
    std::this_thread::sleep_for(std::chrono::duration<double>(min_time));
    measured = completed.load() - warm;
    elapsed = timer.seconds();
    running.store(false);
    for (std::thread& t : pool) {
        t.join();
    }
}

/// Closed-loop measurement of one (mode, clients) cell: each client owns
/// one request's storage and re-submits as soon as its reply lands.
cell_result run_cell(const mode_spec& mode, int clients, double min_time,
                     double launch_latency_us)
{
    serve::service_config cfg;
    cfg.workers = 2;
    cfg.max_batch = mode.max_batch;
    cfg.max_wait = mode.max_wait;
    cfg.max_queue_systems = 4096;
    xpu::exec_policy policy = xpu::make_sycl_policy();
    policy.emulated_launch_us = launch_latency_us;
    // Graph costs scale with the same device model: replaying a finalized
    // graph on the PVC costs graph_replay_us instead of the eager launch,
    // and the one-time finalize costs graph_finalize_us. With launch
    // emulation off, graph emulation is off too.
    if (launch_latency_us > 0.0) {
        const perf::device_spec pvc = perf::pvc_1s();
        policy.emulated_replay_us =
            mode.zero_replay ? 0.0 : pvc.graph_replay_us;
        policy.emulated_record_us = pvc.graph_finalize_us;
    }
    policy.launch_mode = mode.launch;
    serve::solve_service service(policy, cfg);

    long measured = 0;
    double elapsed = 1.0;
    run_traffic(service, clients, min_time, measured, elapsed);

    const serve::service_stats s = service.stats();
    cell_result out;
    out.solves_per_sec = static_cast<double>(measured) / elapsed;
    out.mean_batch = s.mean_batch_size;
    out.p50_ms = s.p50_latency_seconds * 1e3;
    out.p99_ms = s.p99_latency_seconds * 1e3;
    out.requests = measured;
    out.recorded = s.launches_recorded;
    out.replays = s.replays;
    out.rebind_only = s.rebind_only;
    out.replay_us = policy.emulated_replay_us;
    return out;
}

/// One shard-sweep cell: graph_replay mode over `shards` explicit PVC-1S
/// devices, one worker per shard so the worker count scales with the
/// fleet exactly as the paper's one-rank-per-device setup does.
shard_cell_result run_shard_cell(int shards, int clients, double min_time)
{
    serve::service_config cfg;
    cfg.workers = 1;
    cfg.max_batch = 32;
    cfg.max_wait = std::chrono::microseconds{0};  // no window, as above
    cfg.max_queue_systems = 4096;
    cfg.shard_devices.assign(static_cast<std::size_t>(shards), "pvc1s");
    xpu::exec_policy policy = xpu::make_sycl_policy();
    policy.launch_mode = xpu::launch_mode::graph_replay;
    serve::solve_service service(policy, cfg);

    long measured = 0;
    double elapsed = 1.0;
    run_traffic(service, clients, min_time, measured, elapsed);
    service.drain();

    const serve::service_stats s = service.stats();
    shard_cell_result out;
    out.wall_sps = static_cast<double>(measured) / elapsed;
    out.mean_batch = s.mean_batch_size;
    out.p50_ms = s.p50_latency_seconds * 1e3;
    out.p99_ms = s.p99_latency_seconds * 1e3;
    out.requests = measured;
    out.steals = s.steals;
    out.completed_systems = s.completed_systems;
    for (const serve::shard_stats& ss : s.shards) {
        out.max_modeled_busy_seconds =
            std::max(out.max_modeled_busy_seconds, ss.modeled_busy_seconds);
    }
    if (out.max_modeled_busy_seconds > 0.0) {
        out.modeled_sps = static_cast<double>(s.completed_systems) /
                          out.max_modeled_busy_seconds;
    }
    return out;
}

/// One open-loop overload cell: a paced generator offering `rate_sps`
/// sheddable (priority 0) requests per second against a service with the
/// watermark shed on. Unlike the closed-loop cells, the generator does
/// not wait for replies, so offering past the service's capacity is
/// possible — shedding and deadlines, not client backpressure, must keep
/// accepted-request latency bounded.
struct overload_result {
    double offered_sps = 0.0;
    double accepted_sps = 0.0;
    double shed_fraction = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    unsigned long long completed = 0;
    unsigned long long shed = 0;
    unsigned long long expired = 0;
};

overload_result run_overload_cell(double rate_sps, double min_time,
                                  double launch_latency_us)
{
    serve::service_config cfg;
    cfg.workers = 2;
    cfg.max_batch = 32;
    cfg.max_wait = std::chrono::microseconds{300};
    cfg.max_queue_systems = 256;
    cfg.on_full = serve::overflow_policy::block;
    // Shed priority-0 work once ~24 systems are queued: accepted requests
    // then wait at most ~a batch of backlog, which is what keeps their
    // p99 flat as the offered load doubles past capacity.
    cfg.shed_watermark = 24.0 / 256.0;
    xpu::exec_policy policy = xpu::make_sycl_policy();
    policy.emulated_launch_us = launch_latency_us;
    serve::solve_service service(policy, cfg);

    const mat::batch_csr<double> proto_a =
        work::stencil_3pt<double>(1, kRows, 77);
    const auto proto_b = work::random_rhs<double>(1, kRows, 78);
    const solver::solve_options opts = bench_opts();

    // Collector: resolves tickets as they land so the in-flight set (and
    // its request storage) stays bounded while the generator runs open
    // loop.
    std::deque<serve::solve_service::ticket<double>> inflight;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::atomic<unsigned long long> ok{0};
    std::atomic<unsigned long long> expired{0};
    std::atomic<unsigned long long> refused{0};
    std::thread collector([&] {
        std::unique_lock<std::mutex> lk(mu);
        for (;;) {
            cv.wait(lk, [&] { return !inflight.empty() || done; });
            if (inflight.empty() && done) {
                return;
            }
            auto ticket = std::move(inflight.front());
            inflight.pop_front();
            lk.unlock();
            const auto reply = ticket.get();
            (reply.status == serve::request_status::ok
                 ? ok
                 : reply.status == serve::request_status::expired
                       ? expired
                       : refused)
                .fetch_add(1, std::memory_order_relaxed);
            lk.lock();
        }
    });

    // Paced open-loop generator: every ~100 us, top the submission count
    // up to rate * elapsed — ticks fine enough that a burst stays under
    // the shed watermark at the offered rates this host can generate.
    // Requests are all priority 0 with a 3 ms deadline: the watermark is
    // the first line of defense, the deadline catches any straggler a
    // scheduling hiccup parks past it (it expires instead of stretching
    // the accepted-latency tail), and the hard bound (where
    // on_full=block would close the loop again) is never reached.
    wall_timer timer;
    long submitted = 0;
    const long cap = 200000;  // bounds memory and runtime on slow hosts
    while (timer.seconds() < min_time && submitted < cap) {
        const long want = std::min(
            cap, static_cast<long>(rate_sps * timer.seconds()));
        for (; submitted < want; ++submitted) {
            serve::solve_request<double> req;
            req.a = proto_a;
            req.b = proto_b;
            req.x = mat::batch_dense<double>(1, kRows, 1);
            req.opts = opts;
            req.priority = 0;
            req.deadline = std::chrono::milliseconds(3);
            auto ticket = service.submit(std::move(req));
            {
                std::lock_guard<std::mutex> lk(mu);
                inflight.push_back(std::move(ticket));
            }
            cv.notify_one();
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const double elapsed = timer.seconds();
    {
        std::lock_guard<std::mutex> lk(mu);
        done = true;
    }
    cv.notify_all();
    collector.join();
    service.drain();

    const serve::service_stats s = service.stats();
    overload_result out;
    out.offered_sps = static_cast<double>(submitted) / elapsed;
    out.accepted_sps = static_cast<double>(ok.load()) / elapsed;
    out.completed = ok.load();
    out.expired = expired.load();
    out.shed = s.shed_requests;
    out.shed_fraction =
        submitted > 0 ? static_cast<double>(s.shed_requests) /
                            static_cast<double>(submitted)
                      : 0.0;
    // p50/p99 cover accepted (completed) requests only: a shed resolves
    // without ever entering the latency accounting.
    out.p50_ms = s.p50_latency_seconds * 1e3;
    out.p99_ms = s.p99_latency_seconds * 1e3;
    return out;
}

/// Solves one fixed request mix on an N-shard service and returns every
/// solution value in submission order — the acceptance probe that shard
/// placement and stealing never perturb results.
std::vector<double> solve_mix_on_shards(int shards)
{
    serve::service_config cfg;
    cfg.workers = 1;
    cfg.max_batch = 16;
    cfg.shard_devices.assign(static_cast<std::size_t>(shards), "pvc1s");
    xpu::exec_policy policy = xpu::make_sycl_policy();
    policy.launch_mode = xpu::launch_mode::graph_replay;
    serve::solve_service service(policy, cfg);

    const solver::solve_options opts = bench_opts();
    std::vector<serve::solve_service::ticket<double>> tickets;
    for (int wave = 0; wave < 4; ++wave) {
        for (const index_type rows : {8, 16, 24, 32}) {
            serve::solve_request<double> req;
            req.a = work::stencil_3pt<double>(
                2, rows, 31 + static_cast<std::uint64_t>(rows));
            req.b = work::random_rhs<double>(
                2, rows, 63 + static_cast<std::uint64_t>(rows));
            req.x = mat::batch_dense<double>(2, rows, 1);
            req.opts = opts;
            tickets.push_back(service.submit(std::move(req)));
        }
    }
    std::vector<double> values;
    for (auto& ticket : tickets) {
        serve::solve_reply<double> reply = ticket.get();
        for (index_type i = 0; i < reply.x.num_batch_items(); ++i) {
            const double* v = reply.x.item_values(i);
            values.insert(values.end(), v, v + reply.x.rows());
        }
    }
    return values;
}

}  // namespace

int main(int argc, char** argv)
{
    const char* json_path = nullptr;
    double min_time = 1.0;
    // The modeled submission cost of one PVC stack (device_spec
    // kernel_launch_us) is the emulated per-launch wall cost by default.
    double launch_latency_us = perf::pvc_1s().kernel_launch_us;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--min-time") == 0 && i + 1 < argc) {
            min_time = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--launch-latency-us") == 0 &&
                   i + 1 < argc) {
            launch_latency_us = std::atof(argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--json FILE] [--min-time SECONDS] "
                         "[--launch-latency-us US]\n",
                         argv[0]);
            return 2;
        }
    }

    std::printf("Serve throughput: closed-loop clients, 1 system of "
                "%d rows per request,\nCG + scalar Jacobi rtol 1e-6, "
                "2 workers, emulated launch cost %.1f us;\n"
                "batch1 vs coalesced vs graph_replay vs graph_replay_0us "
                "(32 / 300 us)\n\n",
                kRows, launch_latency_us);
    std::printf("%16s | %8s | %12s | %10s | %9s | %9s\n", "mode", "clients",
                "solves/sec", "mean batch", "p50 ms", "p99 ms");
    rule(78);

    cell_result results[std::size(kModes)][std::size(kClients)];
    for (std::size_t m = 0; m < std::size(kModes); ++m) {
        for (std::size_t c = 0; c < std::size(kClients); ++c) {
            results[m][c] =
                run_cell(kModes[m], kClients[c], min_time, launch_latency_us);
            const cell_result& r = results[m][c];
            std::printf("%16s | %8d | %12.1f | %10.1f | %9.3f | %9.3f\n",
                        kModes[m].name, kClients[c], r.solves_per_sec,
                        r.mean_batch, r.p50_ms, r.p99_ms);
        }
    }

    // Shard-count sweep: the graph_replay stack spread over 1, 2, and 4
    // explicit PVC-1S shards (§4.2's one-stack-to-many scaling shape
    // through the serving path).
    constexpr int kShardCounts[] = {1, 2, 4};
    constexpr int kShardClients[] = {16, 64};
    std::printf("\nShard sweep: graph_replay mode, 1 worker/shard, explicit "
                "PVC-1S devices\n");
    std::printf("%8s | %8s | %13s | %15s | %9s | %7s\n", "shards", "clients",
                "wall sps", "modeled agg sps", "p99 ms", "steals");
    rule(76);
    shard_cell_result shard_results[std::size(kShardCounts)]
                                   [std::size(kShardClients)];
    for (std::size_t si = 0; si < std::size(kShardCounts); ++si) {
        for (std::size_t c = 0; c < std::size(kShardClients); ++c) {
            shard_results[si][c] = run_shard_cell(
                kShardCounts[si], kShardClients[c], min_time);
            const shard_cell_result& r = shard_results[si][c];
            std::printf("%8d | %8d | %13.1f | %15.1f | %9.3f | %7llu\n",
                        kShardCounts[si], kShardClients[c], r.wall_sps,
                        r.modeled_sps, r.p99_ms, r.steals);
        }
    }
    const std::size_t stop_c = std::size(kShardClients) - 1;
    const auto modeled_scaling = [&](std::size_t si) {
        return shard_results[0][stop_c].modeled_sps > 0.0
                   ? shard_results[si][stop_c].modeled_sps /
                         shard_results[0][stop_c].modeled_sps
                   : 0.0;
    };
    const double scaling_2 = modeled_scaling(1);
    const double scaling_4 = modeled_scaling(2);
    const bool shard_bits_identical =
        solve_mix_on_shards(1) == solve_mix_on_shards(2) &&
        solve_mix_on_shards(1) == solve_mix_on_shards(4);
    rule(76);
    std::printf("modeled aggregate scaling at %d clients: "
                "1->2 shards %.2fx, 1->4 shards %.2fx\n",
                kShardClients[stop_c], scaling_2, scaling_4);
    std::printf("p99 at %d clients: 1 shard %.3f ms, 2 shards %.3f ms\n",
                kShardClients[stop_c], shard_results[0][stop_c].p99_ms,
                shard_results[1][stop_c].p99_ms);
    std::printf("bit-identical results across 1/2/4 shards: %s\n",
                shard_bits_identical ? "yes" : "NO");

    // Overload sweep. Saturation is calibrated on the open-loop config
    // itself: a probe cell offers far more than the service can take and
    // the accepted rate under that storm is the capacity C of *this*
    // path (open-loop generator + shed watermark + collector sharing the
    // host with the workers — the closed-loop cells above measure a
    // different, deeper-queued regime). Then offer 0.5x and 2x of C with
    // the shed watermark on. The robustness acceptance bar: accepted-
    // request p99 at 2x saturation within 1.5x of the unsaturated p99 —
    // shedding, not luck, keeps latency flat.
    const std::size_t top = std::size(kClients) - 1;
    // Calibration ladder: double the offered rate until the service
    // visibly sheds (or stops keeping up). An all-out storm would
    // understate capacity — on a small host the generator itself starves
    // the workers — so approach saturation from below instead.
    std::printf("\nOverload sweep: open-loop priority-0 traffic, shed "
                "watermark 24/256 systems, deadline 3 ms\n");
    double capacity = 0.0;
    {
        const double probe_time = std::min(min_time, 0.5);
        double rate = results[1][top].solves_per_sec / 8.0;
        for (int step = 0; step < 8; ++step) {
            const overload_result probe =
                run_overload_cell(rate, probe_time, launch_latency_us);
            capacity = probe.accepted_sps;
            std::printf("  probe: offered %.0f/s -> accepted %.0f/s, "
                        "shed %.1f%%\n",
                        probe.offered_sps, probe.accepted_sps,
                        probe.shed_fraction * 100.0);
            if (probe.shed_fraction > 0.05 ||
                probe.accepted_sps < 0.95 * probe.offered_sps) {
                break;
            }
            rate *= 2.0;
        }
    }
    std::printf("saturation: sustained %.0f accepted solves/sec\n",
                capacity);
    std::printf("%12s | %12s | %12s | %9s | %9s\n", "offered/sec",
                "accepted/sec", "shed frac", "p50 ms", "p99 ms");
    rule(66);
    const double kOverloadFactors[] = {0.5, 2.0};
    overload_result overload[std::size(kOverloadFactors)];
    for (std::size_t i = 0; i < std::size(kOverloadFactors); ++i) {
        overload[i] = run_overload_cell(capacity * kOverloadFactors[i],
                                        min_time, launch_latency_us);
        const overload_result& r = overload[i];
        std::printf("%12.1f | %12.1f | %12.3f | %9.3f | %9.3f\n",
                    r.offered_sps, r.accepted_sps, r.shed_fraction,
                    r.p50_ms, r.p99_ms);
    }
    const double overload_p99_ratio =
        overload[0].p99_ms > 0.0 ? overload[1].p99_ms / overload[0].p99_ms
                                 : 0.0;
    rule(66);
    std::printf("accepted p99 at 2.0x vs 0.5x capacity: %.2fx "
                "(%s 1.5x bar), shed %.0f%% at 2.0x\n",
                overload_p99_ratio,
                overload_p99_ratio <= 1.5 ? "within" : "ABOVE",
                overload[1].shed_fraction * 100.0);

    const auto ratio_at_top = [&](std::size_t num, std::size_t den) {
        return results[den][top].solves_per_sec > 0.0
                   ? results[num][top].solves_per_sec /
                         results[den][top].solves_per_sec
                   : 0.0;
    };
    const double speedup = ratio_at_top(1, 0);
    const double graph_speedup = ratio_at_top(2, 1);
    const double resident_speedup = ratio_at_top(3, 1);
    rule(78);
    std::printf("coalesced vs batch1 at %d clients: %.2fx solves/sec\n",
                kClients[top], speedup);
    std::printf("graph_replay vs coalesced at %d clients: %.2fx solves/sec\n",
                kClients[top], graph_speedup);
    std::printf("graph_replay_0us vs coalesced at %d clients: %.2fx "
                "solves/sec\n",
                kClients[top], resident_speedup);

    if (json_path != nullptr) {
        std::FILE* f = std::fopen(json_path, "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot open %s\n", json_path);
            return 1;
        }
        std::fprintf(f, "{\n  \"bench\": \"serve_throughput\",\n");
        std::fprintf(f,
                     "  \"rows\": %d, \"workers\": 2, "
                     "\"min_time_seconds\": %.2f,\n",
                     kRows, min_time);
        std::fprintf(f, "  \"emulated_launch_us\": %.2f,\n",
                     launch_latency_us);
        std::fprintf(f, "  \"cells\": [\n");
        for (std::size_t m = 0; m < std::size(kModes); ++m) {
            for (std::size_t c = 0; c < std::size(kClients); ++c) {
                const cell_result& r = results[m][c];
                std::fprintf(
                    f,
                    "    {\"mode\": \"%s\", \"launch_mode\": \"%s\", "
                    "\"max_batch\": %d, "
                    "\"max_wait_us\": %ld, \"emulated_replay_us\": %.1f, "
                    "\"clients\": %d, "
                    "\"solves_per_sec\": %.1f, \"mean_batch_size\": %.2f, "
                    "\"p50_latency_ms\": %.3f, \"p99_latency_ms\": %.3f, "
                    "\"requests\": %ld, \"launches_recorded\": %llu, "
                    "\"replays\": %llu, \"rebind_only\": %llu}%s\n",
                    kModes[m].name,
                    xpu::to_string(kModes[m].launch).c_str(),
                    kModes[m].max_batch,
                    static_cast<long>(kModes[m].max_wait.count()),
                    r.replay_us, kClients[c], r.solves_per_sec,
                    r.mean_batch, r.p50_ms, r.p99_ms, r.requests,
                    r.recorded, r.replays, r.rebind_only,
                    m + 1 == std::size(kModes) && c + 1 == std::size(kClients)
                        ? ""
                        : ",");
            }
        }
        std::fprintf(f, "  ],\n");
        std::fprintf(f, "  \"shard_sweep\": [\n");
        for (std::size_t si = 0; si < std::size(kShardCounts); ++si) {
            for (std::size_t c = 0; c < std::size(kShardClients); ++c) {
                const shard_cell_result& r = shard_results[si][c];
                std::fprintf(
                    f,
                    "    {\"shards\": %d, \"clients\": %d, "
                    "\"wall_solves_per_sec\": %.1f, "
                    "\"modeled_aggregate_solves_per_sec\": %.1f, "
                    "\"max_modeled_busy_seconds\": %.4f, "
                    "\"completed_systems\": %llu, "
                    "\"mean_batch_size\": %.2f, \"p50_latency_ms\": %.3f, "
                    "\"p99_latency_ms\": %.3f, \"steals\": %llu}%s\n",
                    kShardCounts[si], kShardClients[c], r.wall_sps,
                    r.modeled_sps, r.max_modeled_busy_seconds,
                    r.completed_systems, r.mean_batch, r.p50_ms, r.p99_ms,
                    r.steals,
                    si + 1 == std::size(kShardCounts) &&
                            c + 1 == std::size(kShardClients)
                        ? ""
                        : ",");
            }
        }
        std::fprintf(f, "  ],\n");
        std::fprintf(f, "  \"overload\": [\n");
        for (std::size_t i = 0; i < std::size(kOverloadFactors); ++i) {
            const overload_result& r = overload[i];
            std::fprintf(
                f,
                "    {\"offered_over_capacity\": %.1f, "
                "\"offered_solves_per_sec\": %.1f, "
                "\"accepted_solves_per_sec\": %.1f, "
                "\"shed_fraction\": %.3f, \"completed\": %llu, "
                "\"shed\": %llu, \"expired\": %llu, "
                "\"p50_latency_ms\": %.3f, "
                "\"p99_latency_ms\": %.3f}%s\n",
                kOverloadFactors[i], r.offered_sps, r.accepted_sps,
                r.shed_fraction, r.completed, r.shed, r.expired, r.p50_ms,
                r.p99_ms, i + 1 == std::size(kOverloadFactors) ? "" : ",");
        }
        std::fprintf(f, "  ],\n");
        std::fprintf(f,
                     "  \"overload_capacity_solves_per_sec\": %.1f,\n",
                     capacity);
        std::fprintf(f,
                     "  \"overload_accepted_p99_ratio_2x_vs_unsat\": "
                     "%.3f,\n",
                     overload_p99_ratio);
        std::fprintf(f,
                     "  \"modeled_scaling_2_shards_at_%d_clients\": %.3f,\n",
                     kShardClients[stop_c], scaling_2);
        std::fprintf(f,
                     "  \"modeled_scaling_4_shards_at_%d_clients\": %.3f,\n",
                     kShardClients[stop_c], scaling_4);
        std::fprintf(f,
                     "  \"p99_ms_1_shard_at_%d_clients\": %.3f,\n",
                     kShardClients[stop_c],
                     shard_results[0][stop_c].p99_ms);
        std::fprintf(f,
                     "  \"p99_ms_2_shards_at_%d_clients\": %.3f,\n",
                     kShardClients[stop_c],
                     shard_results[1][stop_c].p99_ms);
        std::fprintf(f, "  \"bit_identical_across_shard_counts\": %s,\n",
                     shard_bits_identical ? "true" : "false");
        std::fprintf(f,
                     "  \"speedup_coalesced_vs_batch1_at_%d_clients\": "
                     "%.3f,\n",
                     kClients[top], speedup);
        std::fprintf(f,
                     "  \"speedup_graph_replay_vs_coalesced_at_%d_clients"
                     "\": %.3f,\n",
                     kClients[top], graph_speedup);
        std::fprintf(f,
                     "  \"speedup_graph_replay_0us_vs_coalesced_at_%d_"
                     "clients\": %.3f\n}\n",
                     kClients[top], resident_speedup);
        std::fclose(f);
        std::printf("wrote %s\n", json_path);
    }
    return 0;
}
