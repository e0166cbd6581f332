// Lock-free bounded MPMC ring buffer — the admission queue of every shard.
//
// Workers consume coalesced batches continuously instead of being woken
// through a mutex + condition variable per request. The admission side
// must then be lock-free, or the per-submit mutex/notify cost the
// dispatch loop exists to avoid simply moves into the producer. This is
// the classic bounded MPMC queue of Dmitry Vyukov: one sequence counter
// per cell, a single CAS per operation on the producer/consumer cursor,
// and acquire/release ordering on the cell sequence so the payload
// handoff happens-before the consumer's read (TSan-clean; scripts/check.sh config 3 runs the serve
// suite under TSan in both launch modes, and config 9 runs the same code
// under the conc:: model checker).
//
// Semantics:
//  - `try_push` / `try_pop` never block and never spuriously fail under
//    contention — they fail only when the ring is genuinely full / empty
//    at the linearization point.
//  - FIFO per producer; global order is the CAS order on the cursors.
//  - The ring owns pushed elements: destruction drains and destroys any
//    element never popped.
//
// The atomics are `conc::atomic` (std::atomic in the default build) so
// the checked build model-checks this exact code, and the load-bearing
// memory orders are named by the `Orders` traits parameter: production
// code always uses the `ring_orders` defaults, while the conc:: mutant
// suite (tests/test_conc.cpp) instantiates weakened traits to prove the
// checker detects each ordering the algorithm actually relies on.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "conc/shim.hpp"
#include "util/error.hpp"

namespace batchlin::serve {

/// The memory orders the Vyukov ring relies on. Each member is a property
/// the model checker can refute when weakened:
///  - `seq_load` (acquire): the payload write happens-before the consumer
///    that observes the published sequence;
///  - `publish` (release): ditto, producer side;
///  - `retire` (release): the consumer's move-out happens-before the
///    producer that reuses the cell a lap later.
struct ring_orders {
    static constexpr std::memory_order seq_load = std::memory_order_acquire;
    static constexpr std::memory_order publish = std::memory_order_release;
    static constexpr std::memory_order retire = std::memory_order_release;
};

template <typename T, typename Orders = ring_orders>
class mpmc_ring {
public:
    /// Capacity is rounded up to the next power of two (the cell index is
    /// a mask of the cursor); at least 2.
    explicit mpmc_ring(std::size_t min_capacity) : mpmc_ring(min_capacity, 0) {}

    /// Test seam: start both cursors at `start_pos` so wraparound of the
    /// position counter itself (start near SIZE_MAX) is exercisable
    /// without 2^64 pushes. Production code always starts at 0.
    mpmc_ring(std::size_t min_capacity, std::size_t start_pos)
        : capacity_(std::bit_ceil(min_capacity < 2 ? 2 : min_capacity)),
          mask_(capacity_ - 1),
          cells_(new cell[capacity_]),
          enqueue_pos_(start_pos),
          dequeue_pos_(start_pos)
    {
        for (std::size_t i = 0; i < capacity_; ++i) {
            cells_[(start_pos + i) & mask_].seq.store(start_pos + i,
                                                      std::memory_order_relaxed);
        }
    }

    ~mpmc_ring()
    {
        T drained;
        while (try_pop(drained)) {
        }
        delete[] cells_;
    }

    mpmc_ring(const mpmc_ring&) = delete;
    mpmc_ring& operator=(const mpmc_ring&) = delete;

    /// Moves `value` into the ring. On failure (ring full) `value` is left
    /// untouched and the caller keeps ownership.
    bool try_push(T& value)
    {
        cell* c = nullptr;
        std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
        for (;;) {
            c = &cells_[pos & mask_];
            const std::size_t seq = c->seq.load(Orders::seq_load);
            const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                      static_cast<std::intptr_t>(pos);
            if (dif == 0) {
                if (enqueue_pos_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    break;
                }
            } else if (dif < 0) {
                return false;  // full: the cell is a lap behind
            } else {
                pos = enqueue_pos_.load(std::memory_order_relaxed);
            }
        }
        conc::plain_write(static_cast<const void*>(c->storage));
        ::new (static_cast<void*>(c->storage)) T(std::move(value));
        c->seq.store(pos + 1, Orders::publish);
        return true;
    }

    /// Moves the oldest element into `out`. Returns false when empty.
    bool try_pop(T& out)
    {
        cell* c = nullptr;
        std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
        for (;;) {
            c = &cells_[pos & mask_];
            const std::size_t seq = c->seq.load(Orders::seq_load);
            const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                      static_cast<std::intptr_t>(pos + 1);
            if (dif == 0) {
                if (dequeue_pos_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    break;
                }
            } else if (dif < 0) {
                return false;  // empty: the cell was never published
            } else {
                pos = dequeue_pos_.load(std::memory_order_relaxed);
            }
        }
        conc::plain_write(static_cast<const void*>(c->storage));
        T* stored = std::launder(reinterpret_cast<T*>(c->storage));
        out = std::move(*stored);
        stored->~T();
        c->seq.store(pos + mask_ + 1, Orders::retire);
        return true;
    }

    std::size_t capacity() const { return capacity_; }

    /// Approximate: exact only at a quiescent point (used by idle checks;
    /// never for correctness-critical decisions).
    bool empty() const
    {
        return dequeue_pos_.load(std::memory_order_acquire) ==
               enqueue_pos_.load(std::memory_order_acquire);
    }

private:
    /// One slot: the Vyukov sequence counter plus uninitialized storage —
    /// T need not be default-constructible, and cells own a live T only
    /// between push and pop. Packed, not padded to a cache line: the
    /// serve layer sizes every shard's ring for the whole admission
    /// budget, and at 16 B per pointer-payload cell that stays a quarter
    /// of the padded footprint. The two cursors below, which every
    /// producer and consumer hits, keep their own cache lines.
    struct cell {
        conc::atomic<std::size_t> seq{0};
        alignas(T) unsigned char storage[sizeof(T)];
    };

    const std::size_t capacity_;
    const std::size_t mask_;
    cell* const cells_;
    alignas(64) conc::atomic<std::size_t> enqueue_pos_;
    alignas(64) conc::atomic<std::size_t> dequeue_pos_;
};

}  // namespace batchlin::serve
