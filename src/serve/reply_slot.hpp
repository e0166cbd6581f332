// serve::detail::reply_slot — the waiter-bit futex completion slot a
// solve ticket blocks on.
//
// This replaces `std::promise` so the worker controls *when* and
// *whether* waiters are woken: resolution stores the reply and publishes
// `state` (release); the futex wake is issued only for slots a waiter
// actually registered on, and it is further deferred until the whole
// batch is resolved. A client whose window of requests
// was fused into one launch then wakes exactly once and finds every
// ticket already ready, instead of being woken mid-batch and re-blocking
// on each subsequent ticket — on a host that time-shares clients and
// workers, those saved sleep/wake pairs are the difference between a
// launch-bound and a scheduler-bound service.
//
// Extracted from service.hpp and generified over the payload so the
// conc:: model checker (scripts/check.sh config 9) can drive this exact
// resolver/waiter protocol with small payloads: the no-lost-wake
// property and its mutants in tests/test_conc.cpp run *this* code.
#pragma once

#include <cstdint>
#include <utility>

#include "conc/shim.hpp"
#include "serve/futex.hpp"

namespace batchlin::serve::detail {

/// Slot states. A slot starts `pending`; a blocking waiter CAS-es it to
/// `pending_waiting` before sleeping on the futex; the resolver exchanges
/// it to `ready` and wakes only if the old value carried the waiter bit.
/// A resolution that nobody is sleeping on therefore costs one exchange
/// and zero syscalls — the common case when a client's window of requests
/// was fused into one batch and the client is asleep on the *first*
/// ticket while the rest resolve.
inline constexpr std::uint32_t slot_pending = 0;
inline constexpr std::uint32_t slot_ready = 1;
inline constexpr std::uint32_t slot_pending_waiting = 2;

/// Completion slot one ticket waits on; `Payload` is the reply type.
template <typename Payload>
struct reply_slot {
    conc::atomic<std::uint32_t> state{slot_pending};
    Payload reply{};

    /// Stores the reply ahead of `resolve()`. The payload itself is
    /// plain data — the release on `state` is what publishes it — so the
    /// store is hooked into the race detector.
    void store_reply(Payload&& value)
    {
        conc::plain_write(static_cast<const void*>(&reply));
        reply = std::move(value);
    }

    /// Publishes the reply already stored via `store_reply`. Returns the
    /// futex word to wake if a waiter registered before resolution, else
    /// null; the caller wakes it immediately or defers to a batch sweep.
    conc::atomic<std::uint32_t>* resolve()
    {
        const std::uint32_t old =
            state.exchange(slot_ready, std::memory_order_acq_rel);
        return old == slot_pending_waiting ? &state : nullptr;
    }

    /// Blocks until resolved and moves the payload out (the ticket-side
    /// half of the protocol). `spin` bounds the pre-park spin: under load
    /// the resolving batch is usually mid-flight, and catching the
    /// release store here skips a futex sleep/wake pair. Deliberately no
    /// sched_yield in the spin — on a loaded host each yield is a
    /// scheduler round-trip, and a chain of them per get() turns a
    /// batching service scheduler-bound. Under the model checker the
    /// spin is skipped: it cannot make progress in a controlled schedule.
    Payload wait_and_take(int spin = 64)
    {
        std::uint32_t r = state.load(std::memory_order_acquire);
        const int spin_max = conc::active() ? 0 : spin;
        for (int i = 0; r == slot_pending && i < spin_max; ++i) {
            r = state.load(std::memory_order_acquire);
        }
        while (r != slot_ready) {
            // Register as a waiter so the resolver knows to issue a wake,
            // then park. The CAS failing with `ready` means resolution
            // beat the registration; failing with `pending_waiting`
            // means a spurious futex return left our registration in
            // place — park again.
            std::uint32_t expected = slot_pending;
            state.compare_exchange_strong(expected, slot_pending_waiting,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
            if (expected == slot_ready) {
                break;
            }
            // Qualified: ADL on conc::atomic would also find the conc::
            // shim overload in the checked build.
            detail::futex_wait(state, slot_pending_waiting);
            r = state.load(std::memory_order_acquire);
        }
        conc::plain_write(static_cast<const void*>(&reply));
        return std::move(reply);
    }
};

}  // namespace batchlin::serve::detail
