// serve::doorbell — the futex parking protocol of the serve workers.
//
// Producers push into a lock-free ring and must not take a mutex just to
// wake a sleeping consumer; consumers must not burn a core polling an
// empty ring. The doorbell closes the classic sleep/wake race with a
// Dekker-style seq_cst handshake:
//
//   producer: publish work (ring_pending seq_cst increment, then push)
//             -> if parked > 0: bump word (release) + futex wake
//   consumer: heard = word (acquire)
//             -> parked++ (seq_cst)
//             -> re-check "work pending / stopping" AND word == heard
//             -> futex_wait(word, heard)
//             -> parked--
//
// Either the producer's pending-increment is visible to the consumer's
// re-check (the consumer does not sleep), or the consumer's parked++ is
// visible to the producer's parked check (the producer rings). The
// generation re-check `word == heard` closes the remaining window where
// the wake lands between the re-check and the sleep: the bump changes
// the word, so the stale `heard` makes futex_wait return immediately.
// PR 9's satellite audit walked these paths; the conc:: model checker
// now proves them (and their mutants fail) in tests/test_conc.cpp.
//
// Timed parks (`park_for`, the batching window's hold) run the same
// handshake; the timeout firing is just one more spurious return, which
// the protocol already tolerates and the conc:: model already injects.
//
// solve_service runs a second doorbell the other way round: submitters
// blocked by `overflow_policy::block` park on it, and a worker's pop
// (freeing admission budget, seq_cst) is the producer that rings it.
//
// Extracted from solve_service so the model-checked property drives the
// production protocol, not a transcript of it.
#pragma once

#include <chrono>
#include <cstdint>
#include <utility>

#include "conc/shim.hpp"
#include "serve/futex.hpp"

namespace batchlin::serve {

struct doorbell {
    /// Wake generation counter; the futex word workers sleep on.
    conc::atomic<std::uint32_t> word{0};
    /// Number of workers registered as parked (or about to re-check).
    conc::atomic<int> parked{0};

    /// Producer side: ring only when somebody may be sleeping. The
    /// caller must have published its work with seq_cst ordering (see
    /// the file comment) *before* calling.
    void ring()
    {
        if (parked.load(std::memory_order_seq_cst) > 0) {
            ring_always();
        }
    }

    /// Unconditional ring — shutdown paths use this so a worker parking
    /// concurrently with stop() always observes a fresh generation.
    void ring_always()
    {
        word.fetch_add(1, std::memory_order_release);
        detail::futex_wake_all(word);
    }

    /// Consumer side: parks until the next ring unless `keep_awake()`
    /// (work pending, stopping, ...) or a generation change says not to.
    /// May return spuriously; callers re-check their predicate in their
    /// poll loop, exactly like a raw futex wait.
    template <typename KeepAwake>
    void park(KeepAwake&& keep_awake)
    {
        park_impl(keep_awake, nullptr);
    }

    /// `park` that also returns once `timeout` has elapsed.
    template <typename KeepAwake>
    void park_for(KeepAwake&& keep_awake, std::chrono::nanoseconds timeout)
    {
        park_impl(keep_awake, &timeout);
    }

private:
    template <typename KeepAwake>
    void park_impl(KeepAwake& keep_awake,
                   const std::chrono::nanoseconds* timeout)
    {
        const std::uint32_t heard = word.load(std::memory_order_acquire);
        parked.fetch_add(1, std::memory_order_seq_cst);
        if (!keep_awake() &&
            word.load(std::memory_order_acquire) == heard) {
            if (timeout != nullptr) {
                conc::futex_wait_for(word, heard, *timeout);
            } else {
                detail::futex_wait(word, heard);
            }
        }
        parked.fetch_sub(1, std::memory_order_seq_cst);
    }
};

}  // namespace batchlin::serve
