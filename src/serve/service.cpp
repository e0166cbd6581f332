#include "serve/service.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "workload/stencil.hpp"

#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace batchlin::serve {

namespace {

/// First call of every thread the service owns (dispatch workers, the
/// watchdog). Linux lets a timed sleep fire up to the thread's timer
/// slack late, 50 us by default; at 1 ns the window hold, the retry
/// backoff, the probe cooldown and the watchdog scan end within a few us
/// of their deadlines. `name` (at most 15 characters kept) makes the
/// service's threads findable in /proc/<pid>/task and in debuggers.
/// Threads the caller owns keep their own slack: the service never
/// changes it for a blocked submitter's `space_bell_` park, the 50 us
/// `drain()` poll, `stop()`'s joins, or a client's `get()`. A no-op off
/// Linux, like the futex shims.
void service_thread_init(const std::string& name)
{
#if defined(__linux__)
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    prctl(PR_SET_NAME, name.c_str(), 0UL, 0UL, 0UL);
#else
    (void)name;
#endif
}

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/// Exact compatibility check behind the hashed grouping key: equal
/// options and a shared sparsity pattern. Makes hash collisions degrade
/// batching, never correctness.
template <typename T>
bool bodies_compatible(const detail::typed_pending<T>& lhs,
                       const detail::typed_pending<T>& rhs)
{
    return lhs.request.opts == rhs.request.opts &&
           solver::can_coalesce(lhs.request.a, rhs.request.a);
}

bool entries_compatible(const detail::pending_entry& lhs,
                        const detail::pending_entry& rhs)
{
    if (lhs.body.index() != rhs.body.index()) {
        return false;
    }
    return std::visit(
        [&](const auto& typed) {
            using typed_type = std::decay_t<decltype(typed)>;
            return bodies_compatible(typed,
                                     std::get<typed_type>(rhs.body));
        },
        lhs.body);
}

}  // namespace

std::string to_string(request_status status)
{
    switch (status) {
    case request_status::ok:
        return "ok";
    case request_status::rejected:
        return "rejected";
    case request_status::expired:
        return "expired";
    case request_status::failed:
        return "failed";
    }
    return "?";
}

double select_quantile(std::vector<double>& samples, double q)
{
    if (samples.empty()) {
        return 0.0;
    }
    const std::size_t rank = std::min(
        samples.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(samples.size())));
    std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
    return samples[rank];
}

namespace detail {

/// One dispatch worker's estimate of when each coalescing key submits
/// next: the gate of `solve_service::hold_window`, in the spirit of
/// Clipper's adaptive batching (Crankshaw et al., NSDI 2017). Fed by the
/// worker's own pops, from the `enqueued` stamps of consecutive entries
/// of a key. With several workers on one shard each sees only its share
/// of a key's arrivals, so its gaps err long, toward not holding. Fixed
/// size and allocation-free; owned by one worker thread, so unlocked.
class arrival_gaps {
public:
    using clock = std::chrono::steady_clock;

    /// Folds one popped entry's enqueue stamp into its key's gap.
    void observe(std::uint64_t key, clock::time_point enqueued);

    /// The key's latest stamp plus its smoothed gap; empty while the key
    /// has shown no gap on this worker (its first request here).
    std::optional<clock::time_point> next_arrival(std::uint64_t key) const;

private:
    /// Room for every key a worker serves at once (`serve_mixed` routes
    /// 34 over two shards), so a steady key keeps its estimate. A new key
    /// takes the slot of the one that submitted longest ago, which then
    /// starts over cold and holds once, as without the gate.
    static constexpr std::size_t kSlots = 64;
    /// The newest gap's weight in the moving average is 1/8, TCP's
    /// smoothed-RTT gain: a rate change shows within a few dozen
    /// requests, and the average's spread is that of a mean of 15 gaps
    /// (a weight w leaves w / (2 - w) of one gap's variance), so a
    /// Poisson key's estimate spreads about a quarter of its mean gap
    /// and does not flap between holding and launching at once.
    static constexpr std::int64_t kGain = 8;

    struct slot {
        bool used = false;
        std::uint64_t key = 0;
        clock::time_point last{};
        /// Smoothed gap in ns; negative until the key's second stamp.
        std::int64_t gap_ns = -1;
    };
    std::array<slot, kSlots> slots_{};
};

void arrival_gaps::observe(std::uint64_t key, clock::time_point enqueued)
{
    slot* victim = &slots_.front();
    for (slot& s : slots_) {
        if (s.used && s.key == key) {
            // Submitters racing on one ring can push out of stamp order;
            // such a pair arrived together, a gap of zero.
            const std::int64_t gap = std::max<std::int64_t>(
                0, std::chrono::nanoseconds(enqueued - s.last).count());
            s.gap_ns = s.gap_ns < 0 ? gap : s.gap_ns + (gap - s.gap_ns) / kGain;
            s.last = std::max(s.last, enqueued);
            return;
        }
        if (!s.used || (victim->used && s.last < victim->last)) {
            victim = &s;
        }
    }
    *victim = slot{true, key, enqueued, -1};
}

std::optional<arrival_gaps::clock::time_point> arrival_gaps::next_arrival(
    std::uint64_t key) const
{
    for (const slot& s : slots_) {
        if (s.used && s.key == key) {
            if (s.gap_ns < 0) {
                return std::nullopt;
            }
            return s.last + std::chrono::nanoseconds(s.gap_ns);
        }
    }
    return std::nullopt;
}

}  // namespace detail

solve_service::solve_service(xpu::exec_policy policy, service_config config)
    : config_(std::move(config)),
      start_(std::chrono::steady_clock::now()),
      latency_(config_.latency_window)
{
    BATCHLIN_ENSURE_MSG(config_.workers > 0,
                        "service needs at least one worker per shard");
    BATCHLIN_ENSURE_MSG(config_.shards > 0,
                        "service needs at least one shard");
    BATCHLIN_ENSURE_MSG(config_.max_batch > 0,
                        "max_batch must be positive");
    BATCHLIN_ENSURE_MSG(config_.max_queue_systems > 0,
                        "admission bound must be positive");
    BATCHLIN_ENSURE_MSG(config_.max_wait.count() >= 0,
                        "batching window cannot be negative");
    BATCHLIN_ENSURE_MSG(config_.idle_flush.count() >= 0,
                        "idle flush window cannot be negative");
    launch_mode_ = policy.launch_mode;
    batch_histogram_.assign(static_cast<std::size_t>(config_.max_batch) + 1,
                            0);

    registry_ = config_.shard_devices.empty()
                    ? shard::registry::uniform(config_.shards, "PVC-1S",
                                               policy)
                    : shard::registry::from_names(config_.shard_devices,
                                                  policy);
    config_.shards = registry_.size();
    {
        std::vector<perf::device_spec> specs;
        specs.reserve(registry_.entries().size());
        for (const shard::device_entry& e : registry_.entries()) {
            specs.push_back(e.spec);
        }
        router_ = shard::router(std::move(specs));
    }

    for (index_type sidx = 0; sidx < config_.shards; ++sidx) {
        lanes_.emplace_back();
        shard_lane& lane = lanes_.back();
        lane.id = sidx;
        lane.spec = registry_.at(sidx).spec;
        lane.policy = registry_.at(sidx).policy;
        if (static_cast<std::size_t>(sidx) < config_.shard_faults.size()) {
            lane.policy.faults =
                config_.shard_faults[static_cast<std::size_t>(sidx)];
        }
        // Every queued entry carries at least one system, so the
        // admission budget bounds the entry count and no single ring can
        // ever be full with the budget respected.
        lane.ring = std::make_unique<mpmc_ring<detail::pending_ptr>>(
            static_cast<std::size_t>(config_.max_queue_systems));
        for (int i = 0; i < config_.workers; ++i) {
            worker_queues_.emplace_back(lane.policy);
            // A long-lived service must not accumulate unbounded
            // profiling state even if an operator enables profiling for a
            // while.
            worker_queues_.back().set_launch_history_capacity(1024);
            if (launch_mode_ != xpu::launch_mode::direct) {
                graph_caches_.emplace_back(config_.graph_cache_entries,
                                           config_.graph_cache_entries);
            }
        }
    }

    workers_.reserve(static_cast<std::size_t>(config_.workers) *
                     static_cast<std::size_t>(config_.shards));
    for (index_type sidx = 0; sidx < config_.shards; ++sidx) {
        for (int i = 0; i < config_.workers; ++i) {
            workers_.emplace_back(
                [this, sidx, i] { dispatch_loop(sidx, i); });
        }
    }
    // The hang watchdog only earns its thread when it can actually act:
    // failover on, a nonzero scan interval, and somewhere to fail over
    // to. Worker-side eviction (retry exhaustion) runs regardless.
    if (config_.failover && lanes_.size() > 1 &&
        config_.watchdog_interval.count() > 0 &&
        config_.hang_timeout.count() > 0) {
        watchdog_ = std::thread([this] { watchdog_loop(); });
    }
}

solve_service::~solve_service() { stop(); }

void solve_service::drain()
{
    // Poll the progress counters (see the member comment for why the
    // predicate is never transiently true while an entry changes hands).
    while (ring_pending_.load(std::memory_order_acquire) != 0 ||
           ring_in_flight_.load(std::memory_order_acquire) != 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
}

void solve_service::stop()
{
    gate_.close();
    // Ring unconditionally so parked workers (and blocked submitters)
    // observe the closed gate: one parking concurrently with this bump
    // sees the generation change in its `word == heard` re-check and does
    // not sleep.
    bell_.ring_always();
    space_bell_.ring_always();
    for (std::thread& worker : workers_) {
        if (worker.joinable()) {
            worker.join();
        }
    }
    if (watchdog_.joinable()) {
        watchdog_.join();
    }
    // Submitters cannot leave stragglers (a worker exits only once the
    // gate is sealed and its ring is empty), but failover can: a
    // migration onto a lane whose workers already exited. Resolve such
    // entries as rejected so no ticket is orphaned.
    for (shard_lane& lane : lanes_) {
        detail::pending_ptr leftover;
        while (pop_one(lane, leftover)) {
            ++rejected_requests_;
            reply_without_solving(*leftover, request_status::rejected);
            ring_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        }
    }
}

service_stats solve_service::stats() const
{
    std::unique_lock<std::mutex> lk(mu_);
    service_stats s;
    s.submitted_requests = submitted_requests_;
    s.submitted_systems = submitted_systems_;
    s.completed_requests = totals_.ok_requests;
    s.completed_systems = totals_.ok_systems;
    s.rejected_requests = rejected_requests_;
    s.expired_requests =
        expired_requests_.load(std::memory_order_relaxed);
    s.failed_requests =
        totals_.failed + failed_requests_.load(std::memory_order_relaxed);
    s.batches_launched = batches_launched_;
    s.launch_faults = totals_.faults;
    s.launch_retries = totals_.retries;
    s.degraded_launches = totals_.degraded;
    s.recovered_requests = totals_.recovered;
    s.launches_recorded = totals_.recorded;
    s.replays = totals_.replayed;
    s.rebind_only = totals_.replayed - totals_.recorded;
    s.refined_batches = totals_.refined;
    s.refine_sweeps = totals_.refine_sweeps;
    s.refine_fallbacks = totals_.refine_fallbacks;
    s.window_holds = totals_.window_holds;
    s.window_skips = totals_.window_skips;
    s.window_held_us = static_cast<double>(totals_.window_held_ns) * 1e-3;
    s.window_overslept_us =
        static_cast<double>(totals_.window_overslept_ns) * 1e-3;
    s.watchdog_evictions =
        watchdog_evictions_.load(std::memory_order_relaxed);
    s.migrations = migrations_.load(std::memory_order_relaxed);
    s.migrated_systems = migrated_systems_.load(std::memory_order_relaxed);
    s.shed_requests = shed_requests_.load(std::memory_order_relaxed);
    s.queue_depth_requests = ring_pending_.load(std::memory_order_acquire);
    s.queue_depth_systems = static_cast<std::uint64_t>(
        ring_systems_.load(std::memory_order_acquire));
    s.uptime_seconds =
        seconds_between(start_, std::chrono::steady_clock::now());
    s.shards.reserve(lanes_.size());
    for (const shard_lane& lane : lanes_) {
        shard_stats ss;
        ss.shard = lane.id;
        ss.device = lane.spec.name;
        ss.routed_requests =
            lane.routed_requests.load(std::memory_order_relaxed);
        ss.routed_systems =
            lane.routed_systems.load(std::memory_order_relaxed);
        ss.completed_systems = lane.completed_systems;
        ss.batches_launched = lane.batches_launched;
        ss.steals = lane.steals.load(std::memory_order_relaxed);
        ss.stolen_systems =
            lane.stolen_systems.load(std::memory_order_relaxed);
        ss.launch_faults = lane.launch_faults;
        ss.breaker_trips = lane.brk.trips;
        ss.breaker_active = lane.brk.active();
        // Indexed by shard::lane_state.
        constexpr const char* kStates[] = {"healthy", "evicted", "probing"};
        ss.state = kStates[static_cast<std::size_t>(lane.guard.current())];
        ss.evictions =
            lane.guard.evictions.load(std::memory_order_relaxed);
        ss.probes = lane.guard.probes.load(std::memory_order_relaxed);
        ss.probe_successes =
            lane.guard.probe_successes.load(std::memory_order_relaxed);
        ss.migrated_requests =
            lane.migrated_requests.load(std::memory_order_relaxed);
        ss.migrated_systems =
            lane.migrated_systems.load(std::memory_order_relaxed);
        ss.heartbeat = lane.heartbeat.load(std::memory_order_relaxed);
        ss.queue_depth_systems = static_cast<std::uint64_t>(
            lane.ring_systems.load(std::memory_order_acquire));
        ss.modeled_busy_seconds =
            static_cast<double>(lane.modeled_busy_ns) * 1e-9;
        ss.solves_per_sec =
            s.uptime_seconds > 0.0
                ? static_cast<double>(lane.completed_systems) /
                      s.uptime_seconds
                : 0.0;
        s.steals += ss.steals;
        s.breaker_trips += ss.breaker_trips;
        s.breaker_active = s.breaker_active || ss.breaker_active;
        s.evictions += ss.evictions;
        s.probes += ss.probes;
        s.probe_successes += ss.probe_successes;
        s.shards.push_back(std::move(ss));
    }
    s.batch_size_histogram = batch_histogram_;
    s.solves_per_sec =
        s.uptime_seconds > 0.0
            ? static_cast<double>(totals_.ok_systems) / s.uptime_seconds
            : 0.0;
    s.mean_batch_size =
        batches_launched_ > 0
            ? static_cast<double>(batched_systems_sum_) /
                  static_cast<double>(batches_launched_)
            : 0.0;
    // Every batch completion takes mu_: copy the window once under it and
    // select the percentiles after releasing it.
    std::vector<double> recent = latency_.samples();
    lk.unlock();
    s.p50_latency_seconds = select_quantile(recent, 0.50);
    s.p99_latency_seconds = select_quantile(recent, 0.99);
    return s;
}

bool solve_service::admit(detail::pending_entry& entry, int priority)
{
    const auto items = static_cast<size_type>(entry.items);
    const auto deadline = entry.deadline;
    // A request larger than the whole admission bound can never fit;
    // refuse it up front rather than block its submitter forever.
    if (items > config_.max_queue_systems || !gate_.try_enter()) {
        ++rejected_requests_;
        reply_without_solving(entry, request_status::rejected);
        return false;
    }
    const auto refuse = [&](request_status status,
                            const char* error = nullptr) {
        gate_.leave();
        reply_without_solving(entry, status, error);
        return false;
    };
    // Watermark shedding: above the soft watermark only positive-
    // priority requests are admitted; everything else is refused
    // *before* it can deepen the queue toward the hard bound.
    if (priority <= 0 && config_.shed_watermark < 1.0) {
        const auto mark = static_cast<size_type>(
            std::max(config_.shed_watermark, 0.0) *
            static_cast<double>(config_.max_queue_systems));
        const size_type depth = ring_systems_.load(std::memory_order_acquire);
        if (depth >= mark && depth + items > mark) {
            ++rejected_requests_;
            shed_requests_.fetch_add(1, std::memory_order_relaxed);
            return refuse(request_status::rejected, kShedError);
        }
    }
    // Reserve the budget; when it is full, reject or block per on_full.
    // A blocked submitter stays inside the gate; stop() rings
    // `space_bell_` so it notices the closed gate at once, and only then
    // may the workers exit.
    for (size_type prev = ring_systems_.load(std::memory_order_acquire);;) {
        if (prev + items <= config_.max_queue_systems) {
            if (ring_systems_.compare_exchange_weak(
                    prev, prev + items, std::memory_order_acq_rel)) {
                return true;
            }
            continue;  // the failed CAS reloaded prev
        }
        if (config_.on_full == overflow_policy::reject || gate_.closed()) {
            ++rejected_requests_;
            return refuse(request_status::rejected);
        }
        // Deadline checkpoint 2 of 4 (blocked admission): a request whose
        // deadline passes while its submitter waits for space expires
        // instead of occupying the queue it can no longer use.
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) {
            expired_requests_.fetch_add(1, std::memory_order_relaxed);
            return refuse(request_status::expired);
        }
        // Park until a pop frees budget (pop_one rings), stop() closes
        // the gate, or the deadline passes.
        const auto wake = [&] {
            return ring_systems_.load(std::memory_order_seq_cst) + items <=
                       config_.max_queue_systems ||
                   gate_.closed();
        };
        if (deadline == std::chrono::steady_clock::time_point::max()) {
            space_bell_.park(wake);
        } else {
            space_bell_.park_for(wake, deadline - now);
        }
        prev = ring_systems_.load(std::memory_order_acquire);
    }
}

index_type solve_service::route_request(const detail::pending_entry& entry,
                                        index_type exclude) const
{
    const auto routable = [&](const shard_lane& lane) {
        return lane.guard.available() && lane.id != exclude;
    };
    if (std::all_of(lanes_.begin(), lanes_.end(), routable)) {
        return router_.route(entry.key, entry.rows, entry.nnz);
    }
    std::vector<char> alive;
    alive.reserve(lanes_.size());
    for (const shard_lane& lane : lanes_) {
        alive.push_back(routable(lane) ? 1 : 0);
    }
    return router_.route(entry.key, entry.rows, entry.nnz, &alive);
}

std::int64_t solve_service::steady_now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

index_type solve_service::alive_lanes_excluding(index_type except) const
{
    index_type alive = 0;
    for (const shard_lane& lane : lanes_) {
        if (lane.id != except && lane.guard.available()) {
            ++alive;
        }
    }
    return alive;
}

bool solve_service::evict_lane(shard_lane& lane, bool by_watchdog)
{
    if (!lane.guard.try_evict()) {
        return false;
    }
    lane.evicted_at_ns.store(steady_now_ns(), std::memory_order_release);
    if (by_watchdog) {
        watchdog_evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
}

void solve_service::migrate_entry(shard_lane& from,
                                  detail::pending_ptr entry)
{
    // Precondition: the entry is fully off-books — not on any ring, and
    // its global admission budget released.
    const auto items = static_cast<size_type>(entry->items);
    // Deadline checkpoint 4 of 4 (failover re-queue): a request that
    // outlived its deadline while its shard died expires instead of
    // riding the migration.
    if (entry->deadline <= std::chrono::steady_clock::now()) {
        expired_requests_.fetch_add(1, std::memory_order_relaxed);
        reply_without_solving(*entry, request_status::expired);
        return;
    }
    const index_type cap = config_.max_migrations > 0
                               ? config_.max_migrations
                               : config_.shards;
    if (entry->migrations >= cap ||
        alive_lanes_excluding(from.id) == 0) {
        failed_requests_.fetch_add(1, std::memory_order_relaxed);
        reply_without_solving(
            *entry, request_status::failed,
            "failover: no healthy shard left to migrate to");
        return;
    }
    shard_lane& target =
        lanes_[static_cast<std::size_t>(route_request(*entry, from.id))];
    ++entry->migrations;
    migrations_.fetch_add(1, std::memory_order_relaxed);
    migrated_systems_.fetch_add(static_cast<std::uint64_t>(items),
                                std::memory_order_relaxed);
    from.migrated_requests.fetch_add(1, std::memory_order_relaxed);
    from.migrated_systems.fetch_add(static_cast<std::uint64_t>(items),
                                    std::memory_order_relaxed);
    // Re-reserve the global budget the pop released. Unconditional:
    // already-admitted work must not be dropped because new arrivals
    // filled the budget meanwhile — the transient overshoot is bounded by
    // one batch and drains with the queue.
    ring_systems_.fetch_add(items, std::memory_order_acq_rel);
    enqueue(target, std::move(entry));
}

void solve_service::failover_drain(shard_lane& lane)
{
    detail::pending_ptr entry;
    while (pop_one(lane, entry)) {
        migrate_entry(lane, std::move(entry));
        ring_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    }
}

bool solve_service::send_probe(xpu::queue& q) const
{
    // Synthetic probe batch: a single 4-row SPD tridiagonal CG solve
    // built by the service — client data never rides a suspect device.
    // The probe advances the queue's launch counter like any launch, so
    // a device-lost schedule with a revival index is eventually escaped.
    try {
        solver::batch_matrix<double> a{
            work::stencil_3pt<double>(1, 4, 0x9b0be5eedULL)};
        mat::batch_dense<double> b = work::random_rhs<double>(1, 4, 7);
        mat::batch_dense<double> x(1, 4, 1);
        solver::solve_options opts;
        opts.solver = solver::solver_type::cg;
        opts.criterion = batchlin::stop::relative(1e-8, 64);
        std::vector<solver::assembly_part<double>> part;
        part.push_back({&a, &b, &x});
        return !solver::solve_coalesced<double>(q, part, opts).solves.empty();
    } catch (...) {
        return false;
    }
}

bool solve_service::maybe_probe(shard_lane& lane, xpu::queue& q)
{
    if (lane.guard.available()) {
        return true;
    }
    const std::int64_t cooldown_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            config_.probe_interval)
            .count();
    if (steady_now_ns() -
            lane.evicted_at_ns.load(std::memory_order_acquire) <
        cooldown_ns) {
        return false;
    }
    if (!lane.guard.try_begin_probe()) {
        return false;
    }
    if (send_probe(q)) {
        lane.guard.probe_succeeded();
        return true;
    }
    lane.evicted_at_ns.store(steady_now_ns(), std::memory_order_release);
    lane.guard.probe_failed();
    return false;
}

void solve_service::watchdog_loop()
{
    service_thread_init("serve-watchdog");
    const std::int64_t timeout_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            config_.hang_timeout)
            .count();
    while (!gate_.closed()) {
        std::this_thread::sleep_for(config_.watchdog_interval);
        if (gate_.closed()) {
            return;
        }
        for (shard_lane& lane : lanes_) {
            const std::int64_t started =
                lane.launch_started_ns.load(std::memory_order_acquire);
            if (started == 0 ||
                steady_now_ns() - started < timeout_ns) {
                continue;
            }
            if (alive_lanes_excluding(lane.id) == 0) {
                continue;  // nowhere to fail over to
            }
            if (evict_lane(lane, /*by_watchdog=*/true)) {
                // The wedged batch itself is finished by its worker when
                // the launch returns or throws; everything still queued
                // behind it is drained onto the survivors now.
                failover_drain(lane);
                bell_.ring_always();
            }
        }
    }
}

int solve_service::steal_victim(index_type thief_shard) const
{
    if (lanes_.size() < 2) {
        return -1;
    }
    int victim = -1;
    // Only overflow beyond what the victim's own next launch can absorb
    // is worth moving; sub-batch queues keep fusing locally.
    auto deepest = static_cast<size_type>(config_.max_batch);
    for (const shard_lane& lane : lanes_) {
        if (lane.id == thief_shard) {
            continue;
        }
        const size_type depth =
            lane.ring_systems.load(std::memory_order_seq_cst);
        if (depth > deepest) {
            deepest = depth;
            victim = static_cast<int>(lane.id);
        }
    }
    return victim;
}

bool solve_service::pop_one(shard_lane& lane, detail::pending_ptr& entry)
{
    if (!lane.ring->try_pop(entry)) {
        return false;
    }
    // in_flight is bumped before pending drops so the drain predicate
    // (pending == 0 && in_flight == 0) never observes this entry in
    // neither counter.
    ring_in_flight_.fetch_add(1, std::memory_order_acq_rel);
    ring_pending_.fetch_sub(1, std::memory_order_acq_rel);
    const auto items = static_cast<size_type>(entry->items);
    // seq_cst: the Dekker half a blocked submitter's park pairs with.
    ring_systems_.fetch_sub(items, std::memory_order_seq_cst);
    lane.ring_systems.fetch_sub(items, std::memory_order_relaxed);
    space_bell_.ring();
    return true;
}

void solve_service::pop_into(shard_lane& lane,
                             std::vector<detail::pending_ptr>& chunk,
                             index_type& total,
                             detail::arrival_gaps& arrivals)
{
    detail::pending_ptr entry;
    while (total < config_.max_batch && pop_one(lane, entry)) {
        arrivals.observe(entry->key, entry->enqueued);
        total += entry->items;
        chunk.push_back(std::move(entry));
    }
}

void solve_service::hold_window(shard_lane& own,
                                std::vector<detail::pending_ptr>& chunk,
                                index_type& total,
                                detail::arrival_gaps& arrivals,
                                detail::batch_tally& window)
{
    using clock = std::chrono::steady_clock;
    const detail::pending_entry& leader = *chunk.front();
    const auto companion = [&](const detail::pending_entry& e) {
        return e.key == leader.key && entries_compatible(leader, e);
    };
    // A request of another key closes the window at once: held here it
    // would wait out the leader's window, while left on the ring a
    // sibling worker can serve it.
    for (std::size_t i = 1; i < chunk.size(); ++i) {
        if (!companion(*chunk[i])) {
            return;
        }
    }
    const auto window_end = leader.enqueued + config_.max_wait;
    // The ring is empty from here on (the last pop came up short).
    auto quiet_since = clock::now();
    // Set by the first park: only a window that waited counts as a hold,
    // and only a wake from a park as oversleep.
    std::optional<clock::time_point> opened;
    const auto ns = [](clock::duration d) {
        return static_cast<std::uint64_t>(
            std::chrono::nanoseconds(d).count());
    };
    const auto closed = [&] {
        if (opened) {
            ++window.window_holds;
            window.window_held_ns += ns(clock::now() - *opened);
        }
    };
    while (total < config_.max_batch && !gate_.closed()) {
        // Adaptive flush: once the ring has stayed empty for idle_flush,
        // no companion is coming — with closed-loop clients none can
        // arrive until an in-flight reply resolves — so launch instead of
        // burning the whole window.
        auto close_at = window_end;
        if (config_.idle_flush.count() > 0) {
            close_at = std::min(close_at, quiet_since + config_.idle_flush);
        }
        const auto now = clock::now();
        if (now >= close_at) {
            // Closed on its deadline: how late the wake came (timer
            // slack plus scheduling delay) is what the window overran.
            // Reached already closed (a late wake, or `max_wait` 0), the
            // leader launches without waiting: a skip.
            if (opened) {
                window.window_overslept_ns += ns(now - close_at);
            } else {
                ++window.window_skips;
            }
            closed();
            return;
        }
        if (!opened) {
            // Open only if the key is expected to submit again before the
            // window closes anyway; a key with no gap yet holds.
            const auto next = arrivals.next_arrival(leader.key);
            if (next && *next >= close_at) {
                ++window.window_skips;
                return;
            }
            opened = now;
        }
        bell_.park_for(
            [&] {
                return own.ring_systems.load(std::memory_order_seq_cst) !=
                           0 ||
                       gate_.closed();
            },
            close_at - now);
        // Pop arrivals one at a time so the first foreign one stops the
        // hold and everything behind it stays on the ring.
        detail::pending_ptr entry;
        while (total < config_.max_batch && pop_one(own, entry)) {
            arrivals.observe(entry->key, entry->enqueued);
            quiet_since = clock::now();
            total += entry->items;
            const bool ours = companion(*entry);
            chunk.push_back(std::move(entry));
            if (!ours) {
                closed();
                return;
            }
        }
    }
    closed();
}

void solve_service::dispatch_loop(index_type shard_id, int local_id)
{
    service_thread_init("serve-s" + std::to_string(shard_id) + "w" +
                        std::to_string(local_id));
    const std::size_t widx =
        static_cast<std::size_t>(shard_id) *
            static_cast<std::size_t>(config_.workers) +
        static_cast<std::size_t>(local_id);
    xpu::queue& q = worker_queues_[widx];
    detail::worker_caches* caches =
        graph_caches_.empty() ? nullptr : &graph_caches_[widx];
    shard_lane& own = lanes_[static_cast<std::size_t>(shard_id)];
    // Idle keeps sleeping while this shard's ring is empty and no other
    // ring is worth stealing from. The seq_cst loads pair with enqueue's
    // seq_cst increments (serve/doorbell.hpp).
    const auto work_or_stop = [&] {
        return own.ring_systems.load(std::memory_order_seq_cst) != 0 ||
               steal_victim(shard_id) >= 0 || gate_.closed();
    };
    // Exit test: no submitter can publish any more, and this shard's
    // ring is empty. The gate is read first (serve/gate.hpp). Failover
    // may still move work onto an exited lane; stop() sweeps that.
    const auto finished = [&] {
        return gate_.sealed() &&
               own.ring_systems.load(std::memory_order_seq_cst) == 0;
    };
    detail::arrival_gaps arrivals;
    int idle = 0;
    for (;;) {
        own.heartbeat.fetch_add(1, std::memory_order_relaxed);
        if (config_.failover && !own.guard.available()) {
            // Evicted lane: this worker must not execute client batches.
            // Push queued work to the survivors and spend the idle time
            // half-open probing; the worker keeps running so a successful
            // probe can resume it.
            failover_drain(own);
            if (finished()) {
                return;
            }
            if (!maybe_probe(own, q)) {
                std::this_thread::sleep_for(config_.probe_interval);
            }
            continue;
        }
        // Gather a chunk without blocking — own ring first, then (when
        // idle) the deepest neighbor holding more than max_batch systems.
        std::vector<detail::pending_ptr> chunk;
        index_type total = 0;
        pop_into(own, chunk, total, arrivals);
        bool stolen = false;
        if (const int victim = chunk.empty() ? steal_victim(shard_id) : -1;
            victim >= 0) {
            shard_lane& vic = lanes_[static_cast<std::size_t>(victim)];
            pop_into(vic, chunk, total, arrivals);
            stolen = !chunk.empty();
            if (stolen) {
                own.steals.fetch_add(1, std::memory_order_relaxed);
                own.stolen_systems.fetch_add(
                    static_cast<std::uint64_t>(total),
                    std::memory_order_relaxed);
            }
        }
        if (chunk.empty()) {
            if (finished()) {
                return;
            }
            // Idle backoff: a couple of polite yields (the producers are
            // usually mid-submit on the same host), then park on the
            // doorbell futex instead of burning the core in a poll loop.
            if (++idle < 4) {
                std::this_thread::yield();
                continue;
            }
            bell_.park(work_or_stop);
            continue;
        }
        idle = 0;
        // A tripped breaker suspends coalescing on this shard: every entry
        // launches solo, so a fault pattern tied to batch composition
        // stops taking whole batches of unrelated requests down with it —
        // while the other shards keep coalescing.
        const bool solo = own.brk.suspended.load(std::memory_order_acquire);
        // Stolen work is queued overflow by definition, and a leader
        // already past its deadline has nothing to wait for (it expires
        // at launch): neither opens a window.
        detail::batch_tally window;
        if (!stolen && !solo &&
            chunk.front()->deadline > std::chrono::steady_clock::now()) {
            hold_window(own, chunk, total, arrivals, window);
        }

        // Group the chunk into compatible fused launches. FIFO arrivals
        // of one coalescing key are usually adjacent, so the quadratic
        // sweep stays tiny (chunk is bounded by max_batch systems).
        std::vector<char> taken(chunk.size(), 0);
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            if (taken[i]) {
                continue;
            }
            std::vector<detail::pending_ptr> group;
            group.push_back(std::move(chunk[i]));
            taken[i] = 1;
            index_type gtotal = group.front()->items;
            if (!solo) {
                for (std::size_t j = i + 1; j < chunk.size(); ++j) {
                    if (taken[j] ||
                        gtotal + chunk[j]->items > config_.max_batch) {
                        continue;
                    }
                    if (chunk[j]->key == group.front()->key &&
                        entries_compatible(*group.front(), *chunk[j])) {
                        gtotal += chunk[j]->items;
                        taken[j] = 1;
                        group.push_back(std::move(chunk[j]));
                    }
                }
            }
            const std::size_t popped = group.size();
            try {
                // The first group carries the window's counts into the
                // service totals.
                if (group.front()->body.index() == 0) {
                    execute_typed<double>(own, q, caches, std::move(group),
                                          std::exchange(window, {}));
                } else {
                    execute_typed<float>(own, q, caches, std::move(group),
                                         std::exchange(window, {}));
                }
            } catch (...) {
                // execute_typed() fails tickets individually; anything that
                // still escapes would terminate the worker thread (and
                // with it the process). Swallow it — an unresolved slot
                // would hang its client.
            }
            ring_in_flight_.fetch_sub(popped, std::memory_order_acq_rel);
        }
    }
}

/// RAII publisher of this worker's in-flight launch age: the watchdog
/// reads `launch_started_ns` to spot wedged lanes. One slot per lane is
/// enough — any wedged worker pins a nonzero age, and CAS keeps
/// concurrent workers of one lane from clearing each other's stamp.
namespace {
struct launch_age_scope {
    conc::atomic<std::int64_t>& slot;
    std::int64_t stamp = 0;
    launch_age_scope(conc::atomic<std::int64_t>& s, std::int64_t now)
        : slot(s)
    {
        std::int64_t expected = 0;
        if (slot.compare_exchange_strong(expected, now,
                                         std::memory_order_acq_rel)) {
            stamp = now;
        }
    }
    ~launch_age_scope()
    {
        if (stamp != 0) {
            std::int64_t expected = stamp;
            slot.compare_exchange_strong(expected, 0,
                                         std::memory_order_acq_rel);
        }
    }
};
}  // namespace

template <typename T>
void solve_service::execute_typed(shard_lane& lane, xpu::queue& q,
                                  detail::worker_caches* caches,
                                  std::vector<detail::pending_ptr> batch,
                                  detail::batch_tally tally)
{
    const auto launch_time = std::chrono::steady_clock::now();
    launch_age_scope age(lane.launch_started_ns, steady_now_ns());
    // Deadline checkpoint 3 of 4 (launch): an entry whose deadline has
    // passed by now is never solved.
    std::vector<detail::pending_ptr> live;
    std::vector<detail::pending_ptr> expired;
    for (detail::pending_ptr& entry : batch) {
        (entry->deadline <= launch_time ? expired : live)
            .push_back(std::move(entry));
    }
    for (detail::pending_ptr& entry : expired) {
        reply_without_solving(*entry, request_status::expired);
    }

    // Shape of the live batch: the inputs of the modeled-busy-time
    // bookkeeping.
    const index_type batch_rows = live.empty() ? 0 : live.front()->rows;
    const index_type batch_nnz = live.empty() ? 0 : live.front()->nnz;

    // Wake timing: resolution only ever wakes slots a waiter registered
    // on (see reply_slot::resolve), and those wakes are deferred to one
    // sweep after the batch is fully resolved — the lock-free admission
    // shrugs off the resulting thundering herd, and each client wakes
    // exactly once per fused window.
    std::vector<conc::atomic<std::uint32_t>*> wake_list;
    std::vector<double> latencies;

    // Resolves one entry and hands its request's operands back: ok with
    // its slice of `solved`'s convergence records (starting at `offset`)
    // when `solved` is set, else failed with `error`. Tallies only what
    // it resolved (see try_reply).
    const auto reply = [&](detail::pending_entry& entry,
                           const solver::solve_result* solved,
                           index_type offset, index_type attempts,
                           const std::string& error) {
        auto& typed = std::get<detail::typed_pending<T>>(entry.body);
        solve_reply<T> r;
        r.attempts = attempts;
        if (solved != nullptr) {
            r.log = std::move(typed.request.log);
            solver::split_log_into(solved->log, offset, entry.items, r.log);
            r.fused_systems = solved->log.num_systems();
            r.queue_seconds = seconds_between(entry.enqueued, launch_time);
            r.solve_seconds = solved->wall_seconds;
        } else {
            r.status = request_status::failed;
            r.error = error;
        }
        r.a = std::move(typed.request.a);
        r.b = std::move(typed.request.b);
        r.x = std::move(typed.request.x);
        const auto done = std::chrono::steady_clock::now();
        if (!try_reply(typed, std::move(r), wake_list)) {
            return;
        }
        if (solved == nullptr) {
            ++tally.failed;
            return;
        }
        latencies.push_back(seconds_between(entry.enqueued, done));
        ++tally.ok_requests;
        tally.ok_systems += static_cast<std::uint64_t>(entry.items);
        if (attempts > 1) {
            ++tally.recovered;
        }
    };

    // Last-resort failure sweep: resolves every still-pending ticket with
    // `failed`. Runs when an exception escapes the solve/scatter path, so
    // a worker never exits leaving unresolved tickets behind, and
    // never double-sets an already-resolved one.
    auto fail_remaining = [&](const std::string& what) {
        for (detail::pending_ptr& entry : live) {
            reply(*entry, nullptr, 0, 1, what);
        }
    };

    solver::recording_cache<T>* cache =
        caches != nullptr ? &std::get<solver::recording_cache<T>>(*caches)
                          : nullptr;
    const solver::recording_counts graph_before =
        cache != nullptr ? cache->totals() : solver::recording_counts{};
    solver::coalesced_result solved;
    if (!live.empty()) {
        try {
            std::vector<solver::assembly_part<T>> parts;
            parts.reserve(live.size());
            for (detail::pending_ptr& entry : live) {
                auto& typed =
                    std::get<detail::typed_pending<T>>(entry->body);
                parts.push_back({&typed.request.a, &typed.request.b,
                                 &typed.request.x});
            }
            const solver::solve_options& opts =
                std::get<detail::typed_pending<T>>(live.front()->body)
                    .request.opts;

            // With a survivor to fail over to, an exhausted fused solve
            // evicts this lane instead of degrading to solo solves on it.
            const solver::retry_policy policy{
                config_.launch_retries, config_.retry_backoff,
                config_.max_retry_backoff,
                !config_.failover || alive_lanes_excluding(lane.id) == 0};
            solved = solver::solve_coalesced<T>(q, parts, opts, cache, policy);
            tally.faults += static_cast<std::uint64_t>(solved.tally.faults);
            tally.retries += static_cast<std::uint64_t>(solved.tally.retries);
            tally.degraded = solved.degraded ? 1 : 0;
            for (const solver::solve_result& result : solved.solves) {
                if (result.refined) {
                    ++tally.refined;
                    tally.refine_sweeps +=
                        static_cast<std::uint64_t>(result.refined->sweeps);
                    tally.refine_fallbacks += result.refined->fell_back ? 1 : 0;
                }
            }
            if (solved.solves.empty() && !policy.degrade) {
                // The batch's entries migrate to survivors (their tickets
                // resolve over there), and everything still queued behind
                // them drains right after. `evict_lane` may lose the CAS
                // to the watchdog — the lane is equally dead either way.
                evict_lane(lane, /*by_watchdog=*/false);
                for (detail::pending_ptr& entry : live) {
                    migrate_entry(lane, std::move(entry));
                }
                live.clear();
                failover_drain(lane);
            }
            for (std::size_t i = 0; i < live.size(); ++i) {
                const solver::part_outcome& part = solved.parts[i];
                if (part.exhausted()) {
                    reply(*live[i], nullptr, 0, part.attempts,
                          "device fault persisted through " +
                              std::to_string(part.attempts) +
                              " solve attempts: " + part.fault);
                } else {
                    reply(*live[i],
                          &solved.solves[static_cast<std::size_t>(part.solve)],
                          part.offset, part.attempts, {});
                }
            }
        } catch (const std::exception& ex) {
            fail_remaining(ex.what());
        } catch (...) {
            fail_remaining("unknown error in batch execution");
        }
    }
    if (cache != nullptr) {
        const solver::recording_counts& now = cache->totals();
        tally.recorded = now.recorded - graph_before.recorded;
        tally.replayed = now.replayed - graph_before.replayed;
    }

    {
        std::lock_guard<std::mutex> lk(mu_);
        expired_requests_.fetch_add(
            static_cast<std::uint64_t>(expired.size()),
            std::memory_order_relaxed);
        totals_ += tally;
        lane.completed_systems += tally.ok_systems;
        lane.launch_faults += tally.faults;
        for (const solver::solve_result& launch : solved.solves) {
            const index_type size = launch.log.num_systems();
            ++batches_launched_;
            batched_systems_sum_ += static_cast<std::uint64_t>(size);
            const std::size_t bucket =
                size <= config_.max_batch ? static_cast<std::size_t>(size) : 0;
            ++batch_histogram_[bucket];
            ++lane.batches_launched;
            // Modeled device-busy time of the launch that actually ran
            // (fused size, this lane's device): the scaling signal of the
            // shard sweep on a host whose single core serializes shards.
            lane.modeled_busy_ns +=
                static_cast<std::uint64_t>(shard::router::estimate_cost_ns(
                    lane.spec, size, batch_rows, batch_nnz));
        }
        for (const double s : latencies) {
            latency_.record(s);
        }
        if (!live.empty()) {
            // Per-shard breaker bookkeeping: one observation per
            // execution, faulted if any attempt faulted. A tripped shard
            // cools down alone; its neighbors keep coalescing.
            lane.brk.observe(tally.faults > 0, config_.breaker_fault_ratio,
                             config_.breaker_window,
                             config_.breaker_cooldown);
        }
    }

    // Deferred wake sweep: every entry of the batch is resolved by now,
    // so a client blocked on its first fused request wakes once and
    // drains its whole window without another sleep. Only slots a waiter
    // actually parked on are in the list, so the sweep issues exactly
    // one syscall per sleeping client, not one per request.
    for (conc::atomic<std::uint32_t>* word : wake_list) {
        detail::futex_wake_all(*word);
    }
}

}  // namespace batchlin::serve
