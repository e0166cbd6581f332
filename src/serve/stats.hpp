// Observability of the solve service: counters, batch-size histogram, and
// latency percentiles, exposed as an immutable snapshot so operators can
// poll a running service without perturbing it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/math.hpp"

namespace batchlin::serve {

/// Point-in-time view of one device shard (see `service_stats::shards`).
/// Present even for a single-shard service (one entry).
struct shard_stats {
    index_type shard = 0;
    /// Device-spec name the shard emulates ("PVC-1S", ...).
    std::string device;
    /// Requests / systems the router placed on this shard.
    std::uint64_t routed_requests = 0;
    std::uint64_t routed_systems = 0;
    /// Systems completed ok by this shard's workers (stolen work counts
    /// for the thief — the shard that executed it).
    std::uint64_t completed_systems = 0;
    std::uint64_t batches_launched = 0;
    /// Steals this shard's workers performed (as the thief) and the
    /// systems they pulled over.
    std::uint64_t steals = 0;
    std::uint64_t stolen_systems = 0;
    std::uint64_t launch_faults = 0;
    /// Per-shard circuit breaker (each shard trips and cools down
    /// independently; a faulting shard degrades to solo launches while
    /// the others keep coalescing).
    std::uint64_t breaker_trips = 0;
    bool breaker_active = false;
    /// Failover state machine (PR 10): "healthy", "evicted", "probing".
    std::string state = "healthy";
    /// Times this shard was declared lost (worker retry exhaustion or the
    /// watchdog's launch-age signal).
    std::uint64_t evictions = 0;
    /// Half-open probes sent after an eviction, and how they resolved.
    std::uint64_t probes = 0;
    std::uint64_t probe_successes = 0;
    /// Requests/systems failover migrated OFF this shard.
    std::uint64_t migrated_requests = 0;
    std::uint64_t migrated_systems = 0;
    /// Worker-loop liveness counter (stalls while work is queued mean a
    /// wedged lane).
    std::uint64_t heartbeat = 0;
    /// Current ring depth of this shard, in systems.
    std::uint64_t queue_depth_systems = 0;
    /// Modeled device-busy time of this shard's launches (router cost
    /// model over the fused sizes that actually ran). The shard sweep's
    /// aggregate throughput is completed systems over the busiest
    /// shard's modeled busy time.
    double modeled_busy_seconds = 0.0;
    /// Completed systems per wall-clock second since service start.
    double solves_per_sec = 0.0;
};

/// Point-in-time view of a `solve_service` (see `solve_service::stats`).
/// All request counters are in requests; the `*_systems` counters are in
/// linear systems (a request may carry a whole batch).
struct service_stats {
    /// Requests accepted into the queue since start.
    std::uint64_t submitted_requests = 0;
    std::uint64_t submitted_systems = 0;
    /// Requests completed successfully (status ok).
    std::uint64_t completed_requests = 0;
    std::uint64_t completed_systems = 0;
    /// Requests refused by admission control (bounded queue full or
    /// service no longer accepting).
    std::uint64_t rejected_requests = 0;
    /// Requests whose deadline passed before they were solved: at
    /// admission, while blocked on a full queue, at launch, or when
    /// re-queued by failover. Never solved.
    std::uint64_t expired_requests = 0;
    /// Requests whose batch solve threw.
    std::uint64_t failed_requests = 0;
    /// Fused launches executed by the worker pool.
    std::uint64_t batches_launched = 0;

    /// `xpu::device_error` launch failures observed (one per failed
    /// attempt, retries included).
    std::uint64_t launch_faults = 0;
    /// Retry attempts issued after a launch fault.
    std::uint64_t launch_retries = 0;
    /// Batches that exhausted their retries and degraded to per-request
    /// solo solves.
    std::uint64_t degraded_launches = 0;
    /// Requests that completed ok only via retry or degradation.
    std::uint64_t recovered_requests = 0;
    /// Times the circuit breaker tripped (suspending coalescing).
    std::uint64_t breaker_trips = 0;
    /// Whether coalescing is currently suspended by the breaker.
    bool breaker_active = false;

    /// Graph-launch counters (zero in `launch_mode::direct`, and never
    /// bumped by refined or trsv batches, which the solver does not
    /// record). A coalescing key records on its first batch, at the next
    /// power of two of its systems, and again when a batch outgrows that,
    /// a fault invalidates it, or it returns after eviction; other batches
    /// only swap values (`rebind_only` = `replays - launches_recorded`)
    /// and replay. `replays / batches_launched` close to 1 means the
    /// launch path is amortized to rebind cost.
    std::uint64_t launches_recorded = 0;
    /// Graph submissions (each one fused launch replayed from a graph).
    std::uint64_t replays = 0;
    /// Replays that reused a cached recording without re-recording.
    std::uint64_t rebind_only = 0;

    /// Mixed-precision refinement counters (zero unless requests carry
    /// `refine_sweeps > 0`). `solver::solve_coalesced` runs a refined
    /// batch through the iterative-refinement driver instead of the plain
    /// fused solve: fp32-storage inner solves plus FP64 correction
    /// sweeps.
    std::uint64_t refined_batches = 0;
    /// Correction sweeps summed over all refined batches; divide by
    /// `refined_batches` for the mean sweeps-to-converge.
    std::uint64_t refine_sweeps = 0;
    /// Refined batches that stalled and fell back to a native-storage
    /// resilient solve.
    std::uint64_t refine_fallbacks = 0;

    /// Batching windows held open for companions (a window counts once
    /// its worker parks for one; a chunk that is already full or whose
    /// deadline already passed is not held), the total time they stayed
    /// open, and the total time the ones that closed on their deadline
    /// (`max_wait` or `idle_flush`) woke past it. Service
    /// threads run at 1 ns timer slack, so the oversleep is a few us per
    /// hold, where Linux's default 50 us slack would be most of one.
    std::uint64_t window_holds = 0;
    /// Leaders that launched with no window: their key's next submit was
    /// not expected before the window would close (see
    /// `service_config::max_wait`), or the window had already closed when
    /// the worker reached it (a late wake, or `max_wait` 0). "Did not
    /// wait", where a hold that gathered nobody is "waited and nobody
    /// came". Holds plus skips count the leaders that reached the window
    /// with room left in the batch and only companions in hand.
    std::uint64_t window_skips = 0;
    double window_held_us = 0.0;
    double window_overslept_us = 0.0;

    /// Failover counters (PR 10; all zero unless `config.failover`).
    /// Lane evictions (sum over shards) and the subset declared by the
    /// watchdog's launch-age signal rather than a worker's retry
    /// exhaustion.
    std::uint64_t evictions = 0;
    std::uint64_t watchdog_evictions = 0;
    /// Requests/systems drained off a dead lane and re-routed to a
    /// surviving one.
    std::uint64_t migrations = 0;
    std::uint64_t migrated_systems = 0;
    /// Half-open probes sent by evicted lanes and the successes that
    /// restored routing weight.
    std::uint64_t probes = 0;
    std::uint64_t probe_successes = 0;

    /// Overload shedding: the subset of `rejected_requests` refused by
    /// the watermark policy (priority <= 0 while the queue sits above
    /// `shed_watermark`) rather than by a hard queue-full. Shedding and
    /// deadlines are the whole overload response; no queue depth changes
    /// a request's window or numerics.
    std::uint64_t shed_requests = 0;

    /// Current admission queue depth (all shards).
    std::uint64_t queue_depth_requests = 0;
    std::uint64_t queue_depth_systems = 0;

    /// Per-shard breakdown (one entry per registry shard). The global
    /// counters above aggregate across shards: `breaker_trips` sums the
    /// per-shard trips and `breaker_active` is true when any shard's
    /// breaker is active.
    std::vector<shard_stats> shards;
    /// Cross-shard steals (sum over shards).
    std::uint64_t steals = 0;

    /// batch_size_histogram[k] counts launches that fused k systems;
    /// index 0 aggregates launches larger than `max_batch`: a request
    /// with more systems than `max_batch` is admitted and launches alone.
    std::vector<std::uint64_t> batch_size_histogram;

    /// Submit-to-reply latency percentiles over a sliding window of the
    /// most recent completed requests; zero until the first completion.
    double p50_latency_seconds = 0.0;
    double p99_latency_seconds = 0.0;

    /// Completed systems per wall-clock second since service start.
    double solves_per_sec = 0.0;
    /// Mean fused-launch size in systems; zero before the first launch.
    double mean_batch_size = 0.0;
    double uptime_seconds = 0.0;

    /// Machine-readable dump: one JSON object with every counter above
    /// plus a "shards" array, so CI and the chaos harness assert on
    /// parsed counters instead of scraping human-readable text.
    std::string to_json() const;
};

/// Fixed-size sliding window of recent latency samples. The ring is O(1)
/// per sample so the service's completion path stays cheap; percentiles
/// are selected on demand (`select_quantile`) from a copy of `samples()`.
class latency_window {
public:
    explicit latency_window(std::size_t capacity = 8192)
        : capacity_(capacity)
    {
        samples_.reserve(capacity_);
    }

    void record(double seconds)
    {
        if (samples_.size() < capacity_) {
            samples_.push_back(seconds);
            return;
        }
        samples_[next_] = seconds;
        next_ = (next_ + 1) % capacity_;
    }

    /// The recorded samples in no particular order: the most recent
    /// `capacity` once the window has wrapped.
    const std::vector<double>& samples() const { return samples_; }

    std::size_t size() const { return samples_.size(); }

private:
    std::size_t capacity_;
    std::size_t next_ = 0;
    std::vector<double> samples_;
};

/// Quantile q in [0, 1] of `samples`: the element at rank
/// min(n - 1, floor(q n)) of their sorted order, found by partial
/// selection, which reorders `samples`; zero when it is empty. Several
/// quantiles can be selected from one buffer in turn.
double select_quantile(std::vector<double>& samples, double q);

}  // namespace batchlin::serve
