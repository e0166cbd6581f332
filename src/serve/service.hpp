// serve::solve_service — a dynamic-batching solve service.
//
// The paper's throughput result (§3.4) comes from fusing many small
// systems into one kernel launch. A caller with a *stream* of independent
// requests cannot exploit that through single-shot `solve` calls, so this
// subsystem does what an inference server's dynamic batcher does for
// model requests: `submit` enqueues a request and returns a ticket;
// worker threads coalesce compatible requests (same precision, format,
// sparsity pattern, and solve options) into one fused launch under a
// time/size window (`max_batch`, `max_wait`); results and per-system
// convergence records are scattered back per request.
//
// Threading model: admission is lock-free. `submit` reserves its systems
// against the global budget with atomics and pushes the request into its
// shard's bounded MPMC ring (serve/ring.hpp); idle workers sleep on a
// futex doorbell (serve/doorbell.hpp) that a producer rings only when
// somebody is parked, and a ticket waits on its own reply slot
// (serve/reply_slot.hpp). An admission gate (serve/gate.hpp) keeps
// stop() from retiring the workers while a submitter is between its
// "accepting?" check and its push. All four protocols are model-checked
// by the conc:: suite. One mutex remains; it guards only the post-batch
// statistics. Each worker thread owns a private `xpu::queue`, so the
// pooled launch resources (arenas, counter blocks, spill scratch) are
// never shared — the contract `xpu::queue` documents and debug-asserts.
// Admission is bounded: when `max_queue_systems` is reached, requests are
// rejected or the submitter blocks, per `overflow_policy`; a request
// larger than the whole bound is always rejected. Per-request deadlines
// are honored before launch: an expired request completes with
// `request_status::expired` and is never solved. `stop` drains
// gracefully (queued work is still solved; batching windows are cut
// short).
//
// One dispatch loop serves every launch mode, and every fused batch is one
// `solver::solve_coalesced` call. The mode only decides whether that call
// gets the worker's recording cache (`graph_replay`) or not (`direct`);
// which batches refine, record or launch eagerly is the solver's rule.
//
// Head-of-line note: a batching window is held only while everything
// its worker has popped is the leader's companion; the first request of
// another key closes it, launches the leader's batch at once, and leaves
// later arrivals on the ring for sibling workers. A request of another
// key therefore waits for at most the leader's solve, never its window.
//
// Sharding (`service_config::shards` / `shard_devices`): the service runs
// one `shard::lane` per registry device — its own ring, worker pool,
// graph caches, circuit breaker and fault accounting. `submit` routes
// each request to its coalesce key's affine shard (`shard::router`), and
// idle workers steal from rings holding more than a full batch. The
// registry derives every lane's policy from the same base policy
// (kernel-behavior fields untouched), so replies stay bit-identical no
// matter how many shards serve them or where placement and stealing move
// a batch. A single-shard service behaves exactly like the unsharded
// service did.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <variant>
#include <vector>

#include "conc/shim.hpp"
#include "serve/doorbell.hpp"
#include "serve/futex.hpp"
#include "serve/gate.hpp"
#include "serve/reply_slot.hpp"
#include "serve/ring.hpp"
#include "serve/stats.hpp"
#include "shard/lane.hpp"
#include "shard/registry.hpp"
#include "shard/router.hpp"
#include "solver/assemble.hpp"
#include "solver/options.hpp"
#include "solver/record.hpp"
#include "util/error.hpp"
#include "xpu/policy.hpp"
#include "xpu/queue.hpp"

namespace batchlin::serve {

/// Terminal state of one request.
enum class request_status {
    /// Solved; `x`, `log`, and the timing fields are valid.
    ok,
    /// Refused by admission control; never queued.
    rejected,
    /// Deadline passed before the batch launched; never solved.
    expired,
    /// The batch solve threw; `error` carries the message.
    failed,
};

std::string to_string(request_status status);

/// One asynchronous solve request: A x = b per batch item, with `x`
/// carrying the initial guess (and, in the reply, the solution). A
/// request may itself hold a batch of systems; they stay contiguous in
/// the fused launch.
template <typename T>
struct solve_request {
    solver::batch_matrix<T> a;
    mat::batch_dense<T> b;
    mat::batch_dense<T> x;
    solver::solve_options opts{};
    /// Relative deadline measured from submit; zero means none. A
    /// negative deadline (a caller computing it from a stale clock) is
    /// already expired and resolves `request_status::expired` at
    /// admission, before routing.
    std::chrono::microseconds deadline{0};
    /// Admission priority under overload shedding: requests with
    /// priority <= 0 are shed once the queue sits above
    /// `service_config::shed_watermark`; positive priorities are only
    /// refused by the hard queue bound. Ignored when shedding is off.
    int priority = 0;
    /// Optional scratch the reply's `log` is built in. Leave empty and
    /// the service allocates; move the previous reply's `log` back in
    /// (like `a`/`b`/`x`) and a high-rate caller recycles the log
    /// storage too instead of paying three cross-thread allocations per
    /// request.
    log::batch_log log;
};

/// What the ticket resolves to. For non-ok statuses `x` returns the
/// initial guess unchanged and `log` is empty.
template <typename T>
struct solve_reply {
    request_status status = request_status::ok;
    /// Failure message when status == failed.
    std::string error;
    /// The request's matrix and right-hand side, handed back so a
    /// high-rate caller can recycle the storage for its next request
    /// instead of rebuilding it (`a` is read-only during the solve).
    solver::batch_matrix<T> a;
    mat::batch_dense<T> b;
    mat::batch_dense<T> x;
    log::batch_log log;
    /// Systems in the fused launch this request rode in.
    index_type fused_systems = 0;
    /// Solve attempts this request's data went through: 1 is the happy
    /// path; more means launch faults were retried (and possibly the
    /// batch degraded to solo solves) before this reply resolved.
    index_type attempts = 1;
    /// Submit-to-launch waiting time.
    double queue_seconds = 0.0;
    /// Wall time of the fused solve.
    double solve_seconds = 0.0;
};

/// What to do with a submit that finds the bounded queue full.
enum class overflow_policy {
    /// Complete the ticket immediately with `request_status::rejected`.
    reject,
    /// Block the submitting thread until space frees up (or the service
    /// stops accepting, which rejects). A request deadline that passes
    /// meanwhile is noticed at the submitting thread's own timer slack;
    /// the service does not change a caller's slack.
    block,
};

struct service_config {
    /// Worker threads *per shard*; each owns a private `xpu::queue`.
    int workers = 2;
    /// Logical device shards.
    index_type shards = 1;
    /// Explicit per-shard device names ("pvc1s", "pvc2s", "a100",
    /// "h100"; see shard::parse_device_list). Empty: `shards` uniform
    /// PVC-1S-keyed shards with no launch-cost emulation. Non-empty: one
    /// shard per name, each charging its device's modeled launch costs
    /// as emulated wall time; overrides `shards`.
    std::vector<std::string> shard_devices;
    /// Retired, no longer read: an idle shard's worker always steals
    /// from the deepest other ring holding more than `max_batch` systems.
    bool work_stealing = true;
    /// Retired, no longer read: the steal threshold is `max_batch`.
    index_type steal_threshold = 0;
    /// Per-shard injected fault schedules (index = shard id; shards past
    /// the end get the base policy's plan). Lets tests fault one shard
    /// while its neighbors stay healthy.
    std::vector<xpu::fault_plan> shard_faults;
    /// Most systems one fused launch may carry.
    index_type max_batch = 64;
    /// How long a batch leader waits for companions before launching,
    /// measured from the leader's submit, in every launch mode. The
    /// window closes early once `max_batch` compatible systems are
    /// gathered, or as soon as the worker pops a request of another key.
    /// Stolen work and a shard with a tripped breaker launch without a
    /// window. Zero launches whatever has accumulated immediately. A
    /// window opens only when the leader's key is expected to bring a
    /// companion before it would close: each worker smooths the gaps
    /// between the submits of a key it pops, and a key whose next submit
    /// is due after the window's close launches at once
    /// (`service_stats::window_skips`). A key with no gap yet on the
    /// worker (its first request there) holds. Held on a worker thread,
    /// which runs at 1 ns timer slack, so the window closes within a few
    /// us of this deadline, not Linux's default 50 us late
    /// (`service_stats::window_overslept_us` measures it).
    std::chrono::microseconds max_wait{200};
    /// Adaptive window flush: once the shard's ring has stayed empty for
    /// this long — every other client is waiting on an in-flight reply,
    /// so no companion can arrive until something completes — the leader
    /// launches instead of holding the full `max_wait` window open. This
    /// removes the low-load pathology where a lone request burns the
    /// whole window for companions that cannot exist. It also bounds the
    /// arrival gate: a key whose next submit is not due within this long
    /// of the hold's start opens no window at all. Applies in every
    /// launch mode. Zero disables (always wait out `max_wait`). Honoured
    /// to within a few us, like `max_wait`.
    std::chrono::microseconds idle_flush{25};
    /// Cached graph recordings per worker and precision in the
    /// `graph_replay` launch mode (LRU-evicted, see
    /// `solver::recording_cache`). Each coalescing key (sparsity pattern
    /// and options) occupies one slot, whatever its fused sizes.
    std::size_t graph_cache_entries = 8;
    /// Admission bound, counted in systems (a batched request counts its
    /// batch size).
    size_type max_queue_systems = 4096;
    overflow_policy on_full = overflow_policy::reject;
    /// Retired, no longer read: no solve zero-fills its spill scratch.
    bool skip_spill_zeroing = true;
    /// Sliding-window size of the latency percentile estimator.
    std::size_t latency_window = 8192;
    /// The `solver::retry_policy` of every fused batch: additional solve
    /// attempts after a `xpu::device_error` launch failure before the
    /// batch degrades to per-request solo solves (with `failover` and a
    /// survivor: before its lane is evicted).
    index_type launch_retries = 2;
    /// Backoff before the first retry; doubles per retry up to
    /// `max_retry_backoff` (capped exponential backoff). Slept on the
    /// worker thread, so honoured to within a few us.
    std::chrono::microseconds retry_backoff{50};
    std::chrono::microseconds max_retry_backoff{1000};
    /// Circuit breaker: when at least `breaker_window` fused launches
    /// have completed and the faulted fraction among the last window
    /// reaches this ratio, coalescing is suspended — workers solve
    /// requests solo for `breaker_cooldown` launches, so one poisoned
    /// tenant stops taking whole batches down with it.
    double breaker_fault_ratio = 0.5;
    std::uint32_t breaker_window = 16;
    std::uint32_t breaker_cooldown = 32;

    /// --- Failover (PR 10) ---
    /// Master switch for device-loss failover: lane eviction when retries
    /// exhaust on a device error, ring drain + migration to
    /// surviving shards, the hang watchdog, and half-open probing. Off by
    /// default: eviction changes *where* a persistently-faulting batch
    /// completes, and the PR 5 resilience suites pin down the
    /// degrade-in-place counts. Only meaningful with at least two shards
    /// (a lone lane has nowhere to fail over to).
    bool failover = false;
    /// Retired, no longer read: the first exhausted execution evicts.
    std::uint32_t evict_after_exhausted = 1;
    /// Watchdog scan period; zero disables the watchdog thread (worker-
    /// side eviction still runs). The watchdog runs at 1 ns timer slack,
    /// so scans start within a few us of this period.
    std::chrono::microseconds watchdog_interval{500};
    /// In-flight launch age past which the watchdog declares the lane
    /// wedged and evicts it (the hung batch itself is handled by its
    /// worker when the launch finally returns or throws).
    std::chrono::microseconds hang_timeout{20'000};
    /// Cooldown between an eviction (or a failed probe) and the next
    /// half-open probe on that lane. Slept on the evicted lane's worker,
    /// so honoured to within a few us. (Waits on the caller's own threads
    /// run at the caller's timer slack: a submit blocked by
    /// `overflow_policy::block` until its deadline, the `drain()` poll,
    /// and a ticket's `get()`.)
    std::chrono::microseconds probe_interval{1'000};
    /// How many times one entry may be migrated off dying lanes before
    /// it fails with a structured error; 0 = one round over the fleet
    /// (the shard count).
    index_type max_migrations = 0;

    /// --- Overload degradation (PR 10) ---
    /// Queue-depth fraction of `max_queue_systems` at which admission
    /// sheds priority <= 0 requests (status `rejected`, structured
    /// "shed" error, `shed_requests` counter); >= 1 disables shedding.
    double shed_watermark = 1.0;
    /// Retired, no longer read: overload is met by shedding and
    /// deadlines only, and no request's window or numerics depend on
    /// queue depth.
    bool brownout = false;
    /// Retired, no longer read.
    double brownout_low = 0.50;
    /// Retired, no longer read.
    double brownout_mid = 0.75;
    /// Retired, no longer read.
    double brownout_high = 0.90;
};

namespace detail {

/// Grouping key of the dynamic batcher (the solver's, which its recording
/// cache keys by too); entries_compatible() backs it exactly.
using solver::coalesce_key;

/// A queued request of one precision, with the slot its ticket waits
/// on. The slot itself (waiter-bit states, resolve/wait protocol) lives
/// in serve/reply_slot.hpp, generified over the payload so the conc::
/// model checker exercises the same code.
template <typename T>
struct typed_pending {
    solve_request<T> request;
    std::shared_ptr<reply_slot<solve_reply<T>>> slot;
};

struct pending_entry {
    std::uint64_t key = 0;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;
    index_type items = 0;
    /// Matrix order and stored nonzeros per item: the router's cost-model
    /// inputs, kept for re-routing and the modeled busy time.
    index_type rows = 0;
    index_type nnz = 0;
    std::variant<typed_pending<double>, typed_pending<float>> body;
    /// How many times failover moved this entry off a dead lane; capped
    /// by `service_config::max_migrations` so an entry cannot ping-pong
    /// across a fleet that keeps dying under it.
    index_type migrations = 0;
};

/// Entries travel the ring / batch pipeline by pointer: a `pending_entry`
/// is a few hundred bytes of matrices-by-value, and the multi-stage
/// handoff (submit -> ring -> chunk -> group -> live) would otherwise
/// move that struct four or five times per request. One
/// heap allocation at submit makes every later hop an 8-byte pointer
/// move, and keeps the MPMC ring's cell array small enough to stay
/// cache-resident.
using pending_ptr = std::unique_ptr<pending_entry>;

/// One worker's recording caches, one per precision (`graph_replay`
/// only). Owned by exactly one worker thread — no locking.
using worker_caches = std::tuple<solver::recording_cache<double>,
                                 solver::recording_cache<float>>;

/// Outcome counters of executed batches: each batch tallies its own, and
/// the worker adds them into the service totals under one lock.
struct batch_tally {
    std::uint64_t ok_requests = 0;
    std::uint64_t ok_systems = 0;
    std::uint64_t failed = 0;
    std::uint64_t faults = 0;
    std::uint64_t retries = 0;
    std::uint64_t recovered = 0;
    std::uint64_t degraded = 0;
    std::uint64_t recorded = 0;
    std::uint64_t replayed = 0;
    std::uint64_t refined = 0;
    std::uint64_t refine_sweeps = 0;
    std::uint64_t refine_fallbacks = 0;
    /// Batching windows held (see `solve_service::hold_window`), leaders
    /// that launched without one (no companion expected, or the window
    /// already closed when the worker reached it), the
    /// time the held ones stayed open, and how far past their deadline
    /// the ones that closed on it woke.
    std::uint64_t window_holds = 0;
    std::uint64_t window_skips = 0;
    std::uint64_t window_held_ns = 0;
    std::uint64_t window_overslept_ns = 0;

    batch_tally& operator+=(const batch_tally& o)
    {
        ok_requests += o.ok_requests;
        ok_systems += o.ok_systems;
        failed += o.failed;
        faults += o.faults;
        retries += o.retries;
        recovered += o.recovered;
        degraded += o.degraded;
        recorded += o.recorded;
        replayed += o.replayed;
        refined += o.refined;
        refine_sweeps += o.refine_sweeps;
        refine_fallbacks += o.refine_fallbacks;
        window_holds += o.window_holds;
        window_skips += o.window_skips;
        window_held_ns += o.window_held_ns;
        window_overslept_ns += o.window_overslept_ns;
        return *this;
    }
};

/// One dispatch worker's estimate of when each coalescing key submits
/// next, from the gaps between the keys' `enqueued` stamps: the gate of
/// `solve_service::hold_window` (defined in service.cpp).
class arrival_gaps;

}  // namespace detail

/// Future-like handle for one submitted request. `get()` blocks until
/// the service resolves the request and moves the reply out; a ticket
/// is single-use (`valid()` turns false after `get()`).
template <typename T>
class solve_ticket {
public:
    solve_ticket() = default;

    bool valid() const { return slot_ != nullptr; }

    solve_reply<T> get()
    {
        BATCHLIN_ENSURE_MSG(slot_ != nullptr,
                            "get() on an empty or consumed ticket");
        // The spin/register/park protocol lives with the slot
        // (serve/reply_slot.hpp) — the same code the conc:: model
        // checker drives in tests/test_conc.cpp.
        solve_reply<T> out = slot_->wait_and_take();
        slot_.reset();
        return out;
    }

private:
    friend class solve_service;

    explicit solve_ticket(
        std::shared_ptr<detail::reply_slot<solve_reply<T>>> slot)
        : slot_(std::move(slot))
    {
    }

    std::shared_ptr<detail::reply_slot<solve_reply<T>>> slot_;
};

/// The dynamic-batching solve service. See the file comment for the
/// threading model and batching semantics.
class solve_service {
public:
    template <typename T>
    using ticket = solve_ticket<T>;

    /// Spins up the worker pool; each worker owns an `xpu::queue` built
    /// from `policy`.
    explicit solve_service(xpu::exec_policy policy,
                           service_config config = {});

    /// Stops the service (graceful drain) if still running.
    ~solve_service();

    solve_service(const solve_service&) = delete;
    solve_service& operator=(const solve_service&) = delete;

    /// Enqueues a request and returns the ticket its reply resolves
    /// through. Throws on malformed requests (dimension mismatches,
    /// record_history); admission-control refusals do NOT throw — they
    /// resolve the ticket with `request_status::rejected`.
    template <typename T>
    ticket<T> submit(solve_request<T> request)
    {
        BATCHLIN_ENSURE_MSG(!request.opts.record_history,
                            "serve:: does not scatter per-iteration "
                            "history; use a direct solve for that");
        request.opts.criterion.validate();
        const index_type items = solver::items_of(request.a);
        const index_type rows = solver::rows_of(request.a);
        BATCHLIN_ENSURE_MSG(items > 0, "empty solve request");
        BATCHLIN_ENSURE_DIMS(request.b.num_batch_items() == items &&
                                 request.x.num_batch_items() == items,
                             "batch sizes of A, b, x must match");
        BATCHLIN_ENSURE_DIMS(request.b.rows() == rows &&
                                 request.x.rows() == rows &&
                                 request.b.cols() == 1 &&
                                 request.x.cols() == 1,
                             "vector shapes must match the matrix order");

        // Storage normalization point: fp32-storage requests are
        // compressed here, once, on the submitter's thread — the workers
        // then gather homogeneous fp32 value arrays with no per-batch
        // conversion. Refined requests (refine_sweeps > 0) stay NATIVE:
        // the refinement driver computes its FP64 residuals against the
        // native bits and derives the compressed operator itself.
        if (mat::effective_storage<T>(request.opts.storage) ==
                mat::storage_precision::fp32 &&
            request.opts.refine_sweeps == 0 &&
            request.opts.solver != solver::solver_type::trsv) {
            solver::set_storage(request.a, mat::storage_precision::fp32);
        }

        const auto now = std::chrono::steady_clock::now();
        const bool expired_at_admission = request.deadline.count() < 0;
        const auto deadline =
            request.deadline.count() > 0
                ? now + request.deadline
                : std::chrono::steady_clock::time_point::max();
        const int priority = request.priority;
        const std::uint64_t key =
            detail::coalesce_key<T>(request.a, request.opts);
        const auto nnz = static_cast<index_type>(
            solver::values_of(request.a).values_per_item());

        auto slot = std::make_shared<detail::reply_slot<solve_reply<T>>>();
        ticket<T> fut{slot};
        detail::pending_ptr entry = std::make_unique<detail::pending_entry>(
            key, now, deadline, items, rows, nnz,
            detail::typed_pending<T>{std::move(request), std::move(slot)});

        ++submitted_requests_;
        submitted_systems_ += static_cast<std::uint64_t>(items);

        // Deadline checkpoint 1 of 4 (admission): a deadline already in
        // the past expires here, before routing — it must never be
        // queued, and never silently read as "no deadline".
        if (expired_at_admission) {
            expired_requests_.fetch_add(1, std::memory_order_relaxed);
            reply_without_solving(*entry, request_status::expired);
            return fut;
        }

        // Placement: coalesce-key affinity (see shard/router.hpp); idle
        // workers steal past that.
        const index_type where = route_request(*entry);
        // Nothing between admit() and leave() below may throw: a
        // submitter stuck inside the gate would keep stop() waiting.
        if (!admit(*entry, priority)) {
            return fut;
        }
        shard_lane& lane = lanes_[static_cast<std::size_t>(where)];
        lane.routed_requests.fetch_add(1, std::memory_order_relaxed);
        lane.routed_systems.fetch_add(static_cast<std::uint64_t>(items),
                                      std::memory_order_relaxed);
        enqueue(lane, std::move(entry));
        gate_.leave();
        return fut;
    }

    /// Blocks until the queue is empty and no batch is in flight. The
    /// service keeps accepting; with concurrent submitters this waits for
    /// a momentary quiescent point, not a permanent one.
    void drain();

    /// Stops accepting, solves everything already queued (windows are cut
    /// short), and joins the workers. Idempotent.
    void stop();

    bool accepting() const { return !gate_.closed(); }

    /// Point-in-time statistics snapshot.
    service_stats stats() const;

    const service_config& config() const { return config_; }

    /// Launch mode the workers run in: the constructor policy's.
    xpu::launch_mode launch_mode() const { return launch_mode_; }

    /// The device registry the service shards over.
    const shard::registry& devices() const { return registry_; }

private:
    /// Structured error message of a watermark-shed reply — asserted on
    /// by the chaos harness, so callers can tell a shed from a
    /// queue-full rejection.
    static constexpr const char* kShedError =
        "shed: admission queue past the overload watermark";

    /// Completes a request without solving it (rejected / expired /
    /// shed) and wakes the waiter immediately — these paths resolve one
    /// request, not a batch, so there is nothing to defer for.
    static void reply_without_solving(detail::pending_entry& entry,
                                      request_status status,
                                      const char* error = nullptr)
    {
        std::visit(
            [&](auto& typed) {
                decltype(typed.slot->wait_and_take()) reply;
                reply.status = status;
                if (error != nullptr) {
                    reply.error = error;
                }
                reply.a = std::move(typed.request.a);
                reply.b = std::move(typed.request.b);
                reply.x = std::move(typed.request.x);
                typed.slot->store_reply(std::move(reply));
                if (auto* word = typed.slot->resolve()) {
                    detail::futex_wake_all(*word);
                }
            },
            entry.body);
    }

    /// Admission control for `entry`: the gate, the size bound, the shed
    /// watermark and the global budget (blocking per `on_full`). True
    /// means the budget is reserved and the gate entered — the caller
    /// publishes the entry and then leaves the gate. A refusal has
    /// bumped its counter, resolved the ticket and left the gate again.
    bool admit(detail::pending_entry& entry, int priority);

    /// Resolves a slot exactly once: a second set (e.g. the failure
    /// sweep running after some replies already resolved) is a no-op.
    /// Returns whether this call resolved the ticket. If a waiter had
    /// registered on the slot, its futex word is appended to `wakes` for
    /// the caller to wake after the whole batch is resolved (see
    /// execute_typed) — so a client waiting on the first of several fused
    /// requests wakes once with all of them ready. Resolution is
    /// single-threaded per entry (the owning worker, or stop() after the
    /// join), so the unsynchronized `state` pre-check cannot race
    /// another resolver.
    template <typename T>
    static bool try_reply(detail::typed_pending<T>& typed,
                          solve_reply<T> reply,
                          std::vector<conc::atomic<std::uint32_t>*>& wakes)
    {
        if (typed.slot->state.load(std::memory_order_relaxed) ==
            detail::slot_ready) {
            return false;  // already resolved
        }
        typed.slot->store_reply(std::move(reply));
        if (auto* word = typed.slot->resolve()) {
            wakes.push_back(word);
        }
        return true;
    }

    using shard_lane = shard::lane<detail::pending_ptr>;

    /// Publishes an admitted entry (its global budget already reserved)
    /// on `lane`'s ring and rings the doorbell. Both counters are bumped
    /// seq_cst before the push: a parking worker re-checks them after
    /// registering as parked (the Dekker handshake of serve/doorbell.hpp),
    /// so no push is ever left unattended, and a worker about to exit
    /// sees the lane count (serve/gate.hpp).
    void enqueue(shard_lane& lane, detail::pending_ptr entry)
    {
        lane.ring_systems.fetch_add(static_cast<size_type>(entry->items),
                                    std::memory_order_seq_cst);
        ring_pending_.fetch_add(1, std::memory_order_seq_cst);
        while (!lane.ring->try_push(entry)) {
            // Only transiently possible: each ring is sized for the full
            // admission budget at one system per entry.
            std::this_thread::yield();
        }
        bell_.ring();
    }

    /// The shard one request's key routes to. Evicted / probing lanes
    /// carry zero routing weight (lock-free reads of their guards);
    /// `exclude` (when >= 0) additionally bars one lane — the failover
    /// migration uses it so a dead lane never re-routes work to itself.
    index_type route_request(const detail::pending_entry& entry,
                             index_type exclude = -1) const;

    /// steady_clock now in integer nanoseconds (the watchdog/probe time
    /// base — comparable with `lane.launch_started_ns`).
    static std::int64_t steady_now_ns();

    /// Routable lanes other than `except` (-1 excludes none).
    index_type alive_lanes_excluding(index_type except) const;

    /// Declares `lane` lost on behalf of `who` ("worker" or "watchdog").
    /// Returns whether this call won the eviction CAS; the winner drains
    /// the lane's queued work.
    bool evict_lane(shard_lane& lane, bool by_watchdog);

    /// Re-routes one already-admitted entry off dead `from` onto a
    /// surviving lane's ring and re-reserves the global budget. Entries
    /// past their deadline expire here (deadline checkpoint 4: failover
    /// re-queue); entries past the migration cap, or with no surviving
    /// lane, fail with a structured error.
    void migrate_entry(shard_lane& from, detail::pending_ptr entry);

    /// Drains everything queued on an evicted lane's ring and migrates it.
    void failover_drain(shard_lane& lane);

    /// Sends one synthetic half-open probe batch (a tiny CG solve built
    /// by the service, never client data) through `q`. Returns whether
    /// the probe solved cleanly.
    bool send_probe(xpu::queue& q) const;

    /// Half-open probing driven by an evicted lane's own worker: honors
    /// the probe cooldown, admits one probe at a time (lane_guard CAS),
    /// and restores or re-trips the lane. Returns whether the lane is
    /// routable again.
    bool maybe_probe(shard_lane& lane, xpu::queue& q);

    /// Periodic scan for wedged lanes: an in-flight launch older than
    /// `hang_timeout` evicts its lane (the hung batch is finished by its
    /// worker when the launch returns).
    void watchdog_loop();

    /// The one worker loop of every launch mode: pops its shard's ring
    /// (stealing from deeper rings when idle), holds the batching window
    /// open for companions, groups compatible entries up to `max_batch`,
    /// and executes each group; parks on the doorbell when idle.
    void dispatch_loop(index_type shard_id, int local_id);

    /// Pops one entry off `lane`'s ring, moving it from the pending books
    /// (global and lane) to the in-flight count; the caller retires it
    /// from `ring_in_flight_` once it is resolved or handed on.
    bool pop_one(shard_lane& lane, detail::pending_ptr& entry);

    /// Pops entries off `lane`'s ring into `chunk` (via pop_one) until
    /// `total` reaches `max_batch` systems or the ring is empty, folding
    /// each into the worker's `arrivals`.
    void pop_into(shard_lane& lane, std::vector<detail::pending_ptr>& chunk,
                  index_type& total, detail::arrival_gaps& arrivals);

    /// The batching window of `chunk.front()` (the leader): unless
    /// `arrivals` expects no companion before it would close, keeps
    /// popping `own`'s ring until the window closes (see
    /// `service_config::max_wait` / `idle_flush`), parking on the
    /// doorbell in between. Counts the hold or the skip into `window`'s
    /// window fields.
    void hold_window(shard_lane& own, std::vector<detail::pending_ptr>& chunk,
                     index_type& total, detail::arrival_gaps& arrivals,
                     detail::batch_tally& window);

    /// Deepest other ring holding more than `max_batch` systems; -1 when
    /// none does or the service has a single lane.
    int steal_victim(index_type thief_shard) const;

    /// Solves one group of compatible entries in one `solve_coalesced`
    /// call through `caches` (null in `direct` mode) and resolves every
    /// entry from its outcome, or evicts the lane and migrates them.
    /// The batch's outcomes are added to `tally` (the window's counts
    /// for a chunk's first group, else empty) and it to the totals.
    template <typename T>
    void execute_typed(shard_lane& lane, xpu::queue& q,
                       detail::worker_caches* caches,
                       std::vector<detail::pending_ptr> batch,
                       detail::batch_tally tally);

    service_config config_;
    /// Snapshot of the constructor policy's launch mode.
    xpu::launch_mode launch_mode_ = xpu::launch_mode::direct;
    std::chrono::steady_clock::time_point start_;

    /// Device registry and the router placing requests on it. The lanes
    /// (one per registry entry) live in a deque for address stability —
    /// they hold atomics and are not movable.
    shard::registry registry_;
    shard::router router_;
    std::deque<shard_lane> lanes_;

    /// Guards the post-batch statistics below (the plain counters, the
    /// histogram, the latency window, and the lanes' completion-side
    /// fields).
    mutable std::mutex mu_;
    /// Closed once by stop(): admission refuses, windows close, and
    /// workers exit once it is sealed and the rings are drained
    /// (serve/gate.hpp).
    admission_gate gate_;

    /// Submission-side counters are atomic — bumped on the submitter's
    /// thread before admission, outside the mutex.
    conc::atomic<std::uint64_t> submitted_requests_{0};
    conc::atomic<std::uint64_t> submitted_systems_{0};
    conc::atomic<std::uint64_t> rejected_requests_{0};
    /// Atomic: the lock-free admission paths (negative deadline, blocked
    /// submit timing out, failover migration) expire requests without
    /// holding mu_.
    conc::atomic<std::uint64_t> expired_requests_{0};
    /// Atomic for the same reason: failover migration fails entries with
    /// no surviving target from whatever thread drained them. Failures
    /// inside a batch are in `totals_`.
    conc::atomic<std::uint64_t> failed_requests_{0};
    /// Every executed batch's outcome counters (guarded by mu_).
    detail::batch_tally totals_;
    std::uint64_t batches_launched_ = 0;
    std::uint64_t batched_systems_sum_ = 0;
    std::vector<std::uint64_t> batch_histogram_;
    latency_window latency_;

    /// Lock-free budget/progress counters (the rings themselves live in
    /// the lanes). `ring_systems_` is the admission budget in use;
    /// `ring_pending_` counts entries published but not yet popped;
    /// `ring_in_flight_` counts entries popped but not yet replied. A
    /// worker bumps in_flight *before* dropping pending, so `pending == 0
    /// && in_flight == 0` never holds transiently while an entry changes
    /// hands — that predicate is the drain/shutdown condition.
    conc::atomic<size_type> ring_systems_{0};
    conc::atomic<std::uint64_t> ring_pending_{0};
    conc::atomic<std::uint64_t> ring_in_flight_{0};
    /// Parking protocol of the workers: a worker with nothing to do (or
    /// holding a batching window) registers as parked, re-checks its
    /// shard's ring, and sleeps on the doorbell word; a producer rings
    /// after its push only when someone is parked, so the loaded steady
    /// state pays no wake syscalls at all. Protocol and rationale:
    /// serve/doorbell.hpp.
    doorbell bell_;
    /// The same protocol for submitters blocked by `overflow_policy::
    /// block`: every pop rings it, so a freed budget wakes them at once.
    /// Its own cache line: every pop reads `parked`, while the workers'
    /// doorbell next door is written on every park.
    alignas(64) doorbell space_bell_;

    /// Failover / degradation counters (PR 10; atomic — bumped from
    /// worker loops, the watchdog, and lock-free admission). Eviction
    /// and probe totals live on the lane guards; these are the
    /// service-level aggregates that have no per-lane home.
    conc::atomic<std::uint64_t> watchdog_evictions_{0};
    conc::atomic<std::uint64_t> migrations_{0};
    conc::atomic<std::uint64_t> migrated_systems_{0};
    conc::atomic<std::uint64_t> shed_requests_{0};

    /// One queue per worker, flat-indexed `shard * config_.workers +
    /// local` (deque: xpu::queue is not movable in debug builds).
    /// Constructed before, and outliving, the worker threads.
    std::deque<xpu::queue> worker_queues_;
    /// One recording cache pair per worker in `graph_replay` mode (empty
    /// in `direct` mode), indexed like the queues and owned exclusively by
    /// that worker's thread (deque for address stability).
    std::deque<detail::worker_caches> graph_caches_;
    std::vector<std::thread> workers_;
    /// Hang watchdog (joinable only when failover is on, the interval is
    /// nonzero, and there are at least two lanes to fail over between).
    std::thread watchdog_;
};

}  // namespace batchlin::serve
