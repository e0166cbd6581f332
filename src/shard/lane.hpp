// shard::lane — per-shard runtime state of the sharded serve layer, and
// the per-shard circuit breaker.
//
// One lane per registry entry: its MPMC admission ring, whose depth the
// idle workers steal on, the breaker and fault accounting that isolate a
// misbehaving shard, and the per-shard counters `serve::stats` exposes.
// The lane itself holds no threads and no locks: the ring and the
// atomics are lock-free, the completion-side counters are guarded by the
// service's statistics mutex, and the `xpu::queue`s executing a lane's
// work are owned by the service's worker threads (one queue per
// worker, the single-threaded contract `xpu::queue` documents).
//
// The struct is templated on the queued entry pointer so this header
// does not depend on the serve layer's pending-entry internals (which in
// turn include this header's sibling registry).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "conc/shim.hpp"
#include "perfmodel/device_spec.hpp"
#include "serve/ring.hpp"
#include "util/math.hpp"
#include "xpu/policy.hpp"

namespace batchlin::shard {

/// Per-shard circuit breaker over the PR 5 fault taxonomy: when the
/// faulted fraction of the last `window` fused launches reaches
/// `fault_ratio`, the shard suspends coalescing for `cooldown` launches
/// (its workers degrade to solo/native solves) while the other shards
/// keep serving fused batches. State is guarded by the service mutex;
/// `suspended` mirrors `remaining > 0` for lock-free readers (the
/// dispatch loop checks it per batch).
struct breaker {
    std::uint32_t window_count = 0;
    std::uint32_t window_faulted = 0;
    /// Remaining launches of a tripped breaker's cooldown; > 0 suspends
    /// coalescing on this shard.
    std::uint32_t remaining = 0;
    std::uint64_t trips = 0;
    conc::atomic<bool> suspended{false};

    bool active() const { return remaining > 0; }

    /// One observation per fused execution (`faulted` when any attempt
    /// faulted). During cooldown the window stays frozen and each solo
    /// execution counts the cooldown down. Returns whether this
    /// observation tripped the breaker.
    bool observe(bool faulted, double fault_ratio, std::uint32_t window,
                 std::uint32_t cooldown)
    {
        bool tripped = false;
        if (remaining > 0) {
            --remaining;
        } else {
            ++window_count;
            if (faulted) {
                ++window_faulted;
            }
            if (window > 0 && window_count >= window) {
                const double ratio = static_cast<double>(window_faulted) /
                                     static_cast<double>(window_count);
                if (ratio >= fault_ratio && cooldown > 0) {
                    ++trips;
                    remaining = cooldown;
                    tripped = true;
                }
                window_count = 0;
                window_faulted = 0;
            }
        }
        suspended.store(remaining > 0, std::memory_order_release);
        return tripped;
    }
};

/// Health of a lane in the failover state machine (PR 10). Values are
/// ordered so lock-free readers can treat anything != healthy as
/// "do not route here".
enum class lane_state : std::uint32_t {
    /// Serving normally; full weight in rendezvous routing.
    healthy = 0,
    /// Declared lost (exhausted retries on a device error, or the
    /// watchdog saw a wedged launch). No routing, queue drained and
    /// migrated; workers send half-open probes on a cooldown.
    evicted = 1,
    /// A single half-open probe is in flight; other workers keep
    /// treating the lane as evicted until the probe resolves.
    probing = 2,
};

/// Lock-free eviction/probe state machine of one lane — the shard-level
/// analogue of the coalescing breaker above, but with a half-open state:
/// evicted -> probing admits exactly one synthetic probe batch (CAS), a
/// success restores full routing weight, a failure re-trips the eviction
/// and re-arms the probe cooldown. All transitions are CAS/store on one
/// atomic word so workers, the watchdog, and submitters never need the
/// service mutex to ask "is this lane alive?".
struct lane_guard {
    conc::atomic<std::uint32_t> state{
        static_cast<std::uint32_t>(lane_state::healthy)};
    conc::atomic<std::uint64_t> evictions{0};
    conc::atomic<std::uint64_t> probes{0};
    conc::atomic<std::uint64_t> probe_successes{0};
    conc::atomic<std::uint64_t> probe_failures{0};

    lane_state current() const
    {
        return static_cast<lane_state>(
            state.load(std::memory_order_acquire));
    }

    /// Routable: healthy lanes only (a probing lane is still suspect).
    bool available() const { return current() == lane_state::healthy; }

    /// healthy -> evicted. Exactly one caller wins when workers and the
    /// watchdog race to declare the same lane lost.
    bool try_evict()
    {
        std::uint32_t expected =
            static_cast<std::uint32_t>(lane_state::healthy);
        if (state.compare_exchange_strong(
                expected, static_cast<std::uint32_t>(lane_state::evicted),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
            evictions.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
        return false;
    }

    /// evicted -> probing. Admits exactly one half-open probe at a time.
    bool try_begin_probe()
    {
        std::uint32_t expected =
            static_cast<std::uint32_t>(lane_state::evicted);
        if (state.compare_exchange_strong(
                expected, static_cast<std::uint32_t>(lane_state::probing),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
            probes.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
        return false;
    }

    /// probing -> healthy: the probe solved cleanly, restore full weight.
    void probe_succeeded()
    {
        probe_successes.fetch_add(1, std::memory_order_relaxed);
        state.store(static_cast<std::uint32_t>(lane_state::healthy),
                    std::memory_order_release);
    }

    /// probing -> evicted: the device is still gone; re-arm the cooldown.
    void probe_failed()
    {
        probe_failures.fetch_add(1, std::memory_order_relaxed);
        state.store(static_cast<std::uint32_t>(lane_state::evicted),
                    std::memory_order_release);
    }
};

/// Runtime state of one shard. Not movable (atomics); the service keeps
/// lanes in a deque for address stability.
template <typename EntryPtr>
struct lane {
    index_type id = 0;
    /// The emulated device (stats labels, modeled busy time).
    perf::device_spec spec;
    /// Policy this lane's worker queues are built from (registry entry
    /// policy plus any per-shard injected fault schedule).
    xpu::exec_policy policy;

    /// Admission ring and its system count — the steal-victim depth
    /// signal and the batching window's "ring stayed empty" signal.
    std::unique_ptr<serve::mpmc_ring<EntryPtr>> ring;
    conc::atomic<size_type> ring_systems{0};

    breaker brk;

    /// Failover state machine (PR 10): eviction + half-open probing.
    lane_guard guard;
    /// steady_clock nanoseconds at which the currently-executing launch
    /// started, 0 when no launch is in flight. The watchdog compares it
    /// against the hang timeout to detect a wedged device. With one
    /// worker per lane this is exact; with several it tracks the oldest
    /// still-running launch (first CAS from 0 wins, cleared by the owner).
    conc::atomic<std::int64_t> launch_started_ns{0};
    /// Liveness heartbeat: bumped once per worker-loop iteration and
    /// read only by `stats()` (an operator sees a stalled count); the
    /// watchdog detects wedges by `launch_started_ns` alone.
    conc::atomic<std::uint64_t> heartbeat{0};
    /// steady_clock nanoseconds of the eviction (or last failed probe);
    /// the probe cooldown is measured from here.
    conc::atomic<std::int64_t> evicted_at_ns{0};
    /// Requests/systems migrated OFF this lane by failover drains.
    conc::atomic<std::uint64_t> migrated_requests{0};
    conc::atomic<std::uint64_t> migrated_systems{0};

    /// Submission-side counters (atomic: bumped on submitter threads).
    conc::atomic<std::uint64_t> routed_requests{0};
    conc::atomic<std::uint64_t> routed_systems{0};
    /// Steals this lane's workers performed as the thief (atomic: the
    /// dispatch loop bumps them outside the mutex).
    conc::atomic<std::uint64_t> steals{0};
    conc::atomic<std::uint64_t> stolen_systems{0};

    /// Completion-side counters, guarded by the service mutex (updated
    /// in the workers' post-batch bookkeeping).
    std::uint64_t completed_systems = 0;
    std::uint64_t batches_launched = 0;
    std::uint64_t launch_faults = 0;
    /// Modeled device-busy nanoseconds accumulated by this shard's fused
    /// launches (the router cost model applied to the fused sizes that
    /// actually ran). On a host whose single core serializes all shards,
    /// this is what the scaling shape of the shard sweep is measured on.
    std::uint64_t modeled_busy_ns = 0;
};

}  // namespace batchlin::shard
