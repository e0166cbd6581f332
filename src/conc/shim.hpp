#pragma once
// conc:: shims — the atomic/mutex/futex vocabulary the lock-free serve and
// shard protocols are written against.
//
// Default build: pure aliases onto std::atomic / std::mutex plus direct
// futex syscalls — zero overhead, bit-for-bit the previous hand-written
// code. Checked build (-DBATCHLIN_CONC_CHECK=ON, mirroring the
// BATCHLIN_XPU_CHECK pattern): every operation reports to the
// conc::engine model checker when one is driving the calling thread, so
// the *production* ring/doorbell/reply-slot/lane code — not a transcript
// of it — runs under exhaustive schedule exploration and vector-clock
// race detection. Off-engine threads (normal unit tests in the checked
// build) fall through to the raw std::atomic operation.
//
// Instrumented-mode modeling notes:
//  * values are sequentially consistent; memory_order arguments feed the
//    happens-before tracking only (see DESIGN.md §13),
//  * compare_exchange_weak never fails spuriously under the engine,
//  * futexes grant no happens-before edge — ordering must travel through
//    the word, exactly like the real syscall.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#if defined(__linux__)
#include <climits>
#include <ctime>
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#if defined(BATCHLIN_CONC_CHECK)
#include <source_location>
#include <type_traits>

#include "conc/engine.hpp"
#endif

namespace batchlin::conc::detail {

/// Blocks until `word` is woken or its value is observed != `expected`.
/// May return spuriously; callers re-check the predicate in a loop.
inline void raw_futex_wait(std::atomic<std::uint32_t>& word, std::uint32_t expected)
{
#if defined(__linux__)
    syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
            FUTEX_WAIT_PRIVATE, expected, nullptr, nullptr, 0);
#else
    word.wait(expected, std::memory_order_acquire);
#endif
}

/// raw_futex_wait that also returns once `timeout` has elapsed.
inline void raw_futex_wait_for(std::atomic<std::uint32_t>& word,
                               std::uint32_t expected,
                               std::chrono::nanoseconds timeout)
{
#if defined(__linux__)
    const auto secs = std::chrono::duration_cast<std::chrono::seconds>(timeout);
    timespec rel{};
    rel.tv_sec = static_cast<time_t>(secs.count());
    rel.tv_nsec = static_cast<long>((timeout - secs).count());
    syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
            FUTEX_WAIT_PRIVATE, expected, &rel, nullptr, 0);
#else
    const auto until = std::chrono::steady_clock::now() + timeout;
    while (word.load(std::memory_order_acquire) == expected &&
           std::chrono::steady_clock::now() < until) {
        std::this_thread::yield();
    }
#endif
}

/// Wakes every thread blocked in raw_futex_wait on `word`.
inline void raw_futex_wake_all(std::atomic<std::uint32_t>& word)
{
#if defined(__linux__)
    syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
            FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
#else
    word.notify_all();
#endif
}

}  // namespace batchlin::conc::detail

#if !defined(BATCHLIN_CONC_CHECK)

namespace batchlin::conc {

template <typename T>
using atomic = std::atomic<T>;

using mutex = std::mutex;

/// True when a model-checking engine drives the calling thread (never, in
/// the default build) — callers use it to skip spin loops under the engine.
inline bool active() { return false; }

inline void futex_wait(std::atomic<std::uint32_t>& word, std::uint32_t expected)
{
    detail::raw_futex_wait(word, expected);
}

inline void futex_wait_for(std::atomic<std::uint32_t>& word,
                           std::uint32_t expected,
                           std::chrono::nanoseconds timeout)
{
    detail::raw_futex_wait_for(word, expected, timeout);
}

inline void futex_wake_all(std::atomic<std::uint32_t>& word)
{
    detail::raw_futex_wake_all(word);
}

/// Race-detector hooks on non-atomic payload data; free in this build.
inline void plain_read(const void*) {}
inline void plain_write(const void*) {}

inline void yield() { std::this_thread::yield(); }

}  // namespace batchlin::conc

#else  // BATCHLIN_CONC_CHECK

namespace batchlin::conc {

inline bool active() { return engine::active() != nullptr; }

namespace detail {

/// Failure order implied by the one-order compare_exchange overloads.
inline std::memory_order strip_release(std::memory_order mo)
{
    if (mo == std::memory_order_acq_rel) {
        return std::memory_order_acquire;
    }
    if (mo == std::memory_order_release) {
        return std::memory_order_relaxed;
    }
    return mo;
}

}  // namespace detail

/// Drop-in std::atomic replacement that reports to the active engine.
template <typename T>
class atomic {
public:
    atomic() noexcept = default;
    constexpr atomic(T v) noexcept : v_(v) {}  // NOLINT(google-explicit-constructor)
    atomic(const atomic&) = delete;
    atomic& operator=(const atomic&) = delete;

    T load(std::memory_order mo = std::memory_order_seq_cst,
           const std::source_location& loc = std::source_location::current()) const
    {
        if (engine* e = engine::active()) {
            e->op_point(op_kind::atomic_load, this, to_site(loc));
            T v = v_.load(std::memory_order_seq_cst);
            e->sync_acquire(this, mo);
            return v;
        }
        return v_.load(mo);
    }

    void store(T v, std::memory_order mo = std::memory_order_seq_cst,
               const std::source_location& loc = std::source_location::current())
    {
        if (engine* e = engine::active()) {
            e->op_point(op_kind::atomic_store, this, to_site(loc));
            v_.store(v, std::memory_order_seq_cst);
            e->sync_store(this, mo);
            return;
        }
        v_.store(v, mo);
    }

    T exchange(T v, std::memory_order mo = std::memory_order_seq_cst,
               const std::source_location& loc = std::source_location::current())
    {
        if (engine* e = engine::active()) {
            e->op_point(op_kind::atomic_rmw, this, to_site(loc));
            T old = v_.exchange(v, std::memory_order_seq_cst);
            e->sync_rmw(this, mo);
            return old;
        }
        return v_.exchange(v, mo);
    }

    T fetch_add(T v, std::memory_order mo = std::memory_order_seq_cst,
                const std::source_location& loc = std::source_location::current())
        requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
    {
        if (engine* e = engine::active()) {
            e->op_point(op_kind::atomic_rmw, this, to_site(loc));
            T old = v_.fetch_add(v, std::memory_order_seq_cst);
            e->sync_rmw(this, mo);
            return old;
        }
        return v_.fetch_add(v, mo);
    }

    T fetch_sub(T v, std::memory_order mo = std::memory_order_seq_cst,
                const std::source_location& loc = std::source_location::current())
        requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
    {
        if (engine* e = engine::active()) {
            e->op_point(op_kind::atomic_rmw, this, to_site(loc));
            T old = v_.fetch_sub(v, std::memory_order_seq_cst);
            e->sync_rmw(this, mo);
            return old;
        }
        return v_.fetch_sub(v, mo);
    }

    bool compare_exchange_strong(
        T& expected, T desired, std::memory_order success, std::memory_order failure,
        const std::source_location& loc = std::source_location::current())
    {
        if (engine* e = engine::active()) {
            e->op_point(op_kind::atomic_rmw, this, to_site(loc));
            bool ok = v_.compare_exchange_strong(expected, desired,
                                                 std::memory_order_seq_cst,
                                                 std::memory_order_seq_cst);
            if (ok) {
                e->sync_rmw(this, success);
            } else {
                e->sync_acquire(this, failure);
            }
            return ok;
        }
        return v_.compare_exchange_strong(expected, desired, success, failure);
    }

    bool compare_exchange_strong(
        T& expected, T desired, std::memory_order mo = std::memory_order_seq_cst,
        const std::source_location& loc = std::source_location::current())
    {
        return compare_exchange_strong(expected, desired, mo,
                                       detail::strip_release(mo), loc);
    }

    bool compare_exchange_weak(
        T& expected, T desired, std::memory_order success, std::memory_order failure,
        const std::source_location& loc = std::source_location::current())
    {
        // Modeled as strong: the engine does not inject spurious CAS failure.
        return compare_exchange_strong(expected, desired, success, failure, loc);
    }

    bool compare_exchange_weak(
        T& expected, T desired, std::memory_order mo = std::memory_order_seq_cst,
        const std::source_location& loc = std::source_location::current())
    {
        return compare_exchange_strong(expected, desired, mo,
                                       detail::strip_release(mo), loc);
    }

    T operator++()
        requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
    {
        return static_cast<T>(fetch_add(T{1}) + T{1});
    }

    T operator+=(T v)
        requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
    {
        return static_cast<T>(fetch_add(v) + v);
    }

    T operator-=(T v)
        requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
    {
        return static_cast<T>(fetch_sub(v) - v);
    }

    operator T() const { return load(); }  // NOLINT(google-explicit-constructor)

    /// Underlying word, for the futex syscall in engine-off execution.
    std::atomic<T>& raw() { return v_; }
    const std::atomic<T>& raw() const { return v_; }

private:
    std::atomic<T> v_{};
};

/// Drop-in std::mutex replacement (BasicLockable + try_lock). Not usable
/// with std::condition_variable — cv-coupled mutexes stay std::mutex.
class mutex {
public:
    mutex() = default;
    mutex(const mutex&) = delete;
    mutex& operator=(const mutex&) = delete;

    void lock(const std::source_location& loc = std::source_location::current())
    {
        if (engine* e = engine::active()) {
            e->mutex_lock(this, to_site(loc));
            return;
        }
        m_.lock();
    }

    void unlock(const std::source_location& loc = std::source_location::current())
    {
        if (engine* e = engine::active()) {
            e->mutex_unlock(this, to_site(loc));
            return;
        }
        m_.unlock();
    }

    bool try_lock(const std::source_location& loc = std::source_location::current())
    {
        if (engine* e = engine::active()) {
            return e->mutex_try_lock(this, to_site(loc));
        }
        return m_.try_lock();
    }

private:
    std::mutex m_;
};

inline void futex_wait(atomic<std::uint32_t>& word, std::uint32_t expected,
                       const std::source_location& loc = std::source_location::current())
{
    if (engine* e = engine::active()) {
        e->futex_wait(&word, word.raw(), expected, to_site(loc));
        return;
    }
    detail::raw_futex_wait(word.raw(), expected);
}

/// Under the engine a timed wait is modeled as an untimed one: the
/// timeout firing is just a spurious return, which the engine already
/// injects. A protocol that needs the timeout to make progress therefore
/// shows up as a deadlock, exactly like a lost wake.
inline void futex_wait_for(atomic<std::uint32_t>& word, std::uint32_t expected,
                           std::chrono::nanoseconds timeout,
                           const std::source_location& loc = std::source_location::current())
{
    if (engine* e = engine::active()) {
        e->futex_wait(&word, word.raw(), expected, to_site(loc));
        return;
    }
    detail::raw_futex_wait_for(word.raw(), expected, timeout);
}

inline void futex_wake_all(atomic<std::uint32_t>& word,
                           const std::source_location& loc = std::source_location::current())
{
    if (engine* e = engine::active()) {
        e->futex_wake_all(&word, to_site(loc));
        return;
    }
    detail::raw_futex_wake_all(word.raw());
}

inline void plain_read(const void* addr,
                       const std::source_location& loc = std::source_location::current())
{
    if (engine* e = engine::active()) {
        e->plain_read(addr, to_site(loc));
    }
}

inline void plain_write(const void* addr,
                        const std::source_location& loc = std::source_location::current())
{
    if (engine* e = engine::active()) {
        e->plain_write(addr, to_site(loc));
    }
}

inline void yield(const std::source_location& loc = std::source_location::current())
{
    if (engine* e = engine::active()) {
        e->yield(to_site(loc));
        return;
    }
    std::this_thread::yield();
}

}  // namespace batchlin::conc

#endif  // BATCHLIN_CONC_CHECK
