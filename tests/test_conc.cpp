// Model-check suite for the lock-free serve/shard protocols (conc::).
//
// Three layers, all `Conc*` suites so scripts/check.sh config 9 selects
// them with one regex:
//
//  * ConcEngine — self-tests of the scheduler and race detector: the
//    checker's own teeth (determinism, race detection, deadlock-as-
//    lost-wake, spurious wakeup injection, preemption bounding).
//  * ConcRing / ConcSlot / ConcBell / ConcGate / ConcShard — the load-
//    bearing invariants of the production protocols, run against the
//    *production* code (serve::mpmc_ring, serve::detail::reply_slot,
//    serve::doorbell, serve::admission_gate, shard::breaker and
//    shard::lane_guard) under exhaustive exploration at 2-3 threads
//    plus seeded random walks at higher thread counts.
//  * ConcMutant — the detector-teeth suite: each test seeds one defect
//    (a weakened memory order via the ring's Orders traits, a dropped
//    futex wake, a flipped Dekker registration) and asserts the checker
//    reports it within the schedule budget. A mutant the checker cannot
//    catch would be a hole in the properties.
//
// Every test body is loop-bounded: the engine enumerates schedules by
// depth-first replay, so an unbounded retry loop would make the schedule
// tree infinite (the engine reports it as a max_ops_per_run failure).
// Consumers therefore make a fixed number of attempts and the root
// drains / checks the balance after joining — which still explores every
// interleaving of the bounded ops.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "conc/conc.hpp"
#include "serve/doorbell.hpp"
#include "serve/futex.hpp"
#include "serve/gate.hpp"
#include "serve/reply_slot.hpp"
#include "serve/ring.hpp"
#include "shard/lane.hpp"

namespace conc = batchlin::conc;
namespace serve = batchlin::serve;
namespace shard = batchlin::shard;

namespace {

conc::options exhaustive(int preemption_bound = 2)
{
    conc::options o;
    o.mode = conc::explore_mode::exhaustive;
    o.preemption_bound = preemption_bound;
    return o;
}

conc::options random_walks(long seeds, std::uint64_t seed0 = 1)
{
    conc::options o;
    o.mode = conc::explore_mode::random;
    o.seeds = seeds;
    o.seed0 = seed0;
    o.preemption_bound = -1;  // random walks explore unbounded preemption
    return o;
}

// ---------------------------------------------------------------------------
// ConcEngine: the checker's own teeth.
// ---------------------------------------------------------------------------

TEST(ConcEngine, ExhaustiveExplorationIsDeterministic)
{
    auto body = [] {
        conc::atomic<int> a{0};
        conc::atomic<int> b{0};
        conc::thread t1([&] { a.store(1); b.store(1); });
        conc::thread t2([&] { b.store(2); a.store(2); });
        t1.join();
        t2.join();
    };
    const conc::report r1 = conc::explore(exhaustive(), body);
    const conc::report r2 = conc::explore(exhaustive(), body);
    ASSERT_TRUE(r1.ok) << r1.summary();
    EXPECT_TRUE(r1.complete) << r1.summary();
    EXPECT_GT(r1.schedules, 1);
    EXPECT_EQ(r1.schedules, r2.schedules);
    EXPECT_EQ(r1.pruned, r2.pruned);
}

TEST(ConcEngine, UnsynchronizedPlainWritesAreARace)
{
    const conc::report rep = conc::explore(exhaustive(), [] {
        int x = 0;
        conc::thread t1([&] {
            conc::plain_write(&x);
            x = 1;
        });
        conc::thread t2([&] {
            conc::plain_write(&x);
            x = 2;
        });
        t1.join();
        t2.join();
    });
    ASSERT_FALSE(rep.ok) << rep.summary();
    EXPECT_NE(rep.failure.find("data race"), std::string::npos) << rep.failure;
}

TEST(ConcEngine, ReleaseAcquirePublicationIsRaceFree)
{
    const conc::report rep = conc::explore(exhaustive(), [] {
        int data = 0;
        conc::atomic<int> flag{0};
        conc::thread writer([&] {
            conc::plain_write(&data);
            data = 42;
            flag.store(1, std::memory_order_release);
        });
        if (flag.load(std::memory_order_acquire) == 1) {
            conc::plain_read(&data);
            conc::require(data == 42, "published value visible after acquire");
        }
        writer.join();
    });
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_TRUE(rep.complete) << rep.summary();
}

TEST(ConcEngine, RelaxedPublicationIsARace)
{
    const conc::report rep = conc::explore(exhaustive(), [] {
        int data = 0;
        conc::atomic<int> flag{0};
        conc::thread writer([&] {
            conc::plain_write(&data);
            data = 42;
            flag.store(1, std::memory_order_relaxed);
        });
        if (flag.load(std::memory_order_relaxed) == 1) {
            conc::plain_read(&data);
        }
        writer.join();
    });
    ASSERT_FALSE(rep.ok) << rep.summary();
    EXPECT_NE(rep.failure.find("data race"), std::string::npos) << rep.failure;
}

TEST(ConcEngine, MutexOrdersCriticalSections)
{
    const conc::report rep = conc::explore(exhaustive(), [] {
        int counter = 0;
        conc::mutex m;
        auto bump = [&] {
            m.lock();
            conc::plain_write(&counter);
            ++counter;
            m.unlock();
        };
        conc::thread t1(bump);
        conc::thread t2(bump);
        t1.join();
        t2.join();
        conc::require(counter == 2, "both increments retained");
    });
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_TRUE(rep.complete) << rep.summary();
}

TEST(ConcEngine, LostWakeIsReportedAsDeadlock)
{
    // The waiter parks on a word nobody ever wakes. Spurious wakeups must
    // not rescue it: a protocol is broken if it relies on them.
    const conc::report rep = conc::explore(exhaustive(), [] {
        conc::atomic<std::uint32_t> word{0};
        conc::thread waiter([&] { conc::futex_wait(word, 0); });
        waiter.join();
    });
    ASSERT_FALSE(rep.ok) << rep.summary();
    EXPECT_NE(rep.failure.find("deadlock"), std::string::npos) << rep.failure;
}

TEST(ConcEngine, SpuriousWakeupsAreInjectedAndTolerated)
{
    // A correct wait loop re-checks its predicate, so the injected spurious
    // returns (one credit per thread per schedule) never break it.
    const conc::report rep = conc::explore(exhaustive(), [] {
        conc::atomic<std::uint32_t> word{0};
        conc::thread waker([&] {
            word.store(1, std::memory_order_release);
            conc::futex_wake_all(word);
        });
        while (word.load(std::memory_order_acquire) == 0) {
            conc::futex_wait(word, 0);
        }
        waker.join();
    });
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_TRUE(rep.complete) << rep.summary();
}

TEST(ConcEngine, RequireViolationReportsSiteAndTrace)
{
    const conc::report rep = conc::explore(exhaustive(), [] {
        conc::atomic<int> turn{0};
        conc::thread t([&] { turn.store(1); });
        conc::require(turn.load() == 0, "root ran before the child stored");
        t.join();
    });
    ASSERT_FALSE(rep.ok) << rep.summary();
    EXPECT_NE(rep.failure.find("property violated"), std::string::npos);
    EXPECT_NE(rep.failure.find("test_conc.cpp"), std::string::npos) << rep.failure;
    EXPECT_NE(rep.trace.find("schedule"), std::string::npos) << rep.trace;
}

TEST(ConcEngine, RandomModeReportsTheFailingSeed)
{
    const conc::report rep = conc::explore(random_walks(200), [] {
        int x = 0;
        conc::thread t1([&] {
            conc::plain_write(&x);
            x = 1;
        });
        conc::thread t2([&] {
            conc::plain_write(&x);
            x = 2;
        });
        t1.join();
        t2.join();
    });
    ASSERT_FALSE(rep.ok) << rep.summary();
    EXPECT_NE(rep.trace.find("seed"), std::string::npos) << rep.trace;
}

TEST(ConcEngine, PreemptionBoundPrunesInterleavings)
{
    auto body = [] {
        conc::atomic<int> a{0};
        conc::thread t1([&] {
            a.store(1);
            a.store(2);
            a.store(3);
        });
        conc::thread t2([&] {
            a.store(4);
            a.store(5);
            a.store(6);
        });
        t1.join();
        t2.join();
    };
    const conc::report bounded = conc::explore(exhaustive(0), body);
    const conc::report full = conc::explore(exhaustive(-1), body);
    ASSERT_TRUE(bounded.ok) << bounded.summary();
    ASSERT_TRUE(full.ok) << full.summary();
    EXPECT_LT(bounded.schedules, full.schedules);
}

// ---------------------------------------------------------------------------
// ConcRing: serve::mpmc_ring no-loss / no-duplication / FIFO-per-producer.
// ---------------------------------------------------------------------------

// Drives the production ring (or an Orders-weakened mutant of it) with one
// producer and one bounded consumer; the root drains after joining. With
// `items <= capacity` every push succeeds on the first attempt, so the
// whole body is loop-bounded.
template <typename Orders>
conc::report explore_ring_1p1c(const conc::options& o, std::size_t capacity,
                               std::size_t start_pos, int items, int attempts)
{
    return conc::explore(o, [=] {
        serve::mpmc_ring<int, Orders> ring(capacity, start_pos);
        int pushed = 0;
        std::vector<int> got;
        conc::thread producer([&] {
            for (int i = 1; i <= items; ++i) {
                int v = i;
                for (int tries = 0; tries < attempts; ++tries) {
                    if (ring.try_push(v)) {
                        ++pushed;
                        break;
                    }
                }
            }
        });
        conc::thread consumer([&] {
            for (int a = 0; a < attempts; ++a) {
                int v = 0;
                if (ring.try_pop(v)) {
                    got.push_back(v);
                }
            }
        });
        producer.join();
        consumer.join();
        int v = 0;
        while (ring.try_pop(v)) {
            got.push_back(v);
        }
        // No loss, no duplication, FIFO: everything successfully pushed
        // comes back exactly once, in order.
        conc::require(static_cast<int>(got.size()) == pushed,
                      "every pushed element is popped exactly once");
        for (std::size_t i = 0; i < got.size(); ++i) {
            conc::require(got[i] == static_cast<int>(i) + 1,
                          "FIFO order per producer");
        }
    });
}

TEST(ConcRing, NoLossNoDupFifoOneProducerOneConsumer)
{
    const conc::report rep =
        explore_ring_1p1c<serve::ring_orders>(exhaustive(), 4, 0, 2, 4);
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_TRUE(rep.complete) << rep.summary();
}

TEST(ConcRing, CellReuseAcrossALapIsOrdered)
{
    // capacity 2, three items: the third push reuses the first item's cell,
    // exercising the retire(release) -> seq_load(acquire) edge under every
    // schedule.
    const conc::report rep =
        explore_ring_1p1c<serve::ring_orders>(exhaustive(), 2, 0, 3, 4);
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_TRUE(rep.complete) << rep.summary();
}

TEST(ConcRing, SurvivesPositionCounterWraparound)
{
    // Start both cursors just below SIZE_MAX (the production seam for this
    // is the two-arg constructor): the position counter itself overflows
    // mid-test and the seq/pos difference arithmetic must keep working.
    const std::size_t start = std::numeric_limits<std::size_t>::max() - 1;
    const conc::report rep =
        explore_ring_1p1c<serve::ring_orders>(exhaustive(), 2, start, 3, 4);
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_TRUE(rep.complete) << rep.summary();
}

TEST(ConcRing, TwoProducersKeepPerProducerFifo)
{
    const conc::report rep = conc::explore(exhaustive(1), [] {
        serve::mpmc_ring<int> ring(4);
        std::vector<int> got;
        conc::thread p1([&] {
            for (int v0 : {101, 102}) {
                int v = v0;
                conc::require(ring.try_push(v), "ring has room for p1");
            }
        });
        conc::thread p2([&] {
            for (int v0 : {201, 202}) {
                int v = v0;
                conc::require(ring.try_push(v), "ring has room for p2");
            }
        });
        conc::thread consumer([&] {
            for (int a = 0; a < 5; ++a) {
                int v = 0;
                if (ring.try_pop(v)) {
                    got.push_back(v);
                }
            }
        });
        p1.join();
        p2.join();
        consumer.join();
        int v = 0;
        while (ring.try_pop(v)) {
            got.push_back(v);
        }
        conc::require(got.size() == 4, "no element lost or duplicated");
        int last1 = 0;
        int last2 = 0;
        for (int g : got) {
            int& last = g < 200 ? last1 : last2;
            conc::require(g > last, "FIFO per producer");
            last = g;
        }
        conc::require(last1 == 102 && last2 == 202, "all elements delivered");
    });
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_TRUE(rep.complete) << rep.summary();
}

TEST(ConcRing, RandomSchedulesTwoProducersTwoConsumers)
{
    // Higher thread count than the exhaustive runs can afford: >= 10k
    // seeded random schedules (the fixed seed set check.sh config 9 pins).
    const conc::report rep = conc::explore(random_walks(10000), [] {
        serve::mpmc_ring<int> ring(8);
        std::vector<int> got1;
        std::vector<int> got2;
        conc::thread p1([&] {
            for (int v0 : {101, 102}) {
                int v = v0;
                conc::require(ring.try_push(v), "ring has room for p1");
            }
        });
        conc::thread p2([&] {
            for (int v0 : {201, 202}) {
                int v = v0;
                conc::require(ring.try_push(v), "ring has room for p2");
            }
        });
        auto consume = [&](std::vector<int>& got) {
            for (int a = 0; a < 3; ++a) {
                int v = 0;
                if (ring.try_pop(v)) {
                    got.push_back(v);
                }
            }
        };
        conc::thread c1([&] { consume(got1); });
        conc::thread c2([&] { consume(got2); });
        p1.join();
        p2.join();
        c1.join();
        c2.join();
        std::vector<int> rest;
        int v = 0;
        while (ring.try_pop(v)) {
            rest.push_back(v);
        }
        // Per-consumer streams see each producer's elements in order
        // (dequeue positions are claimed monotonically).
        for (const std::vector<int>* g : {&got1, &got2, &rest}) {
            int last1 = 0;
            int last2 = 0;
            for (int x : *g) {
                int& last = x < 200 ? last1 : last2;
                conc::require(x > last, "per-producer order within a consumer");
                last = x;
            }
        }
        // No loss, no duplication: multiset equality via a sum+count check
        // over distinct values.
        long sum = 0;
        std::size_t n = rest.size();
        for (int x : rest) {
            sum += x;
        }
        for (const std::vector<int>* g : {&got1, &got2}) {
            n += g->size();
            for (int x : *g) {
                sum += x;
            }
        }
        conc::require(n == 4, "all four elements popped exactly once");
        conc::require(sum == 101 + 102 + 201 + 202, "element set preserved");
    });
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_EQ(rep.schedules, 10000);
}

// ---------------------------------------------------------------------------
// ConcSlot: reply_slot resolver/waiter never loses a wake.
// ---------------------------------------------------------------------------

TEST(ConcSlot, ResolverAlwaysWakesARegisteredWaiter)
{
    const conc::report rep = conc::explore(exhaustive(), [] {
        serve::detail::reply_slot<int> slot;
        conc::thread waiter([&] {
            const int v = slot.wait_and_take();
            conc::require(v == 7, "payload delivered intact");
        });
        conc::thread resolver([&] {
            slot.store_reply(7);
            if (conc::atomic<std::uint32_t>* w = slot.resolve()) {
                serve::detail::futex_wake_all(*w);
            }
        });
        waiter.join();
        resolver.join();
    });
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_TRUE(rep.complete) << rep.summary();
}

TEST(ConcSlot, DeferredWakeSweepResolvesEveryWaiter)
{
    // A worker defers wakes to a per-batch sweep: both slots are
    // resolved first, then every collected word is woken. No waiter may be
    // lost in between.
    const conc::report rep = conc::explore(exhaustive(1), [] {
        serve::detail::reply_slot<int> s1;
        serve::detail::reply_slot<int> s2;
        conc::thread w1([&] {
            conc::require(s1.wait_and_take() == 1, "waiter 1 payload");
        });
        conc::thread w2([&] {
            conc::require(s2.wait_and_take() == 2, "waiter 2 payload");
        });
        conc::thread resolver([&] {
            std::vector<conc::atomic<std::uint32_t>*> wake_list;
            s1.store_reply(1);
            if (conc::atomic<std::uint32_t>* w = s1.resolve()) {
                wake_list.push_back(w);
            }
            s2.store_reply(2);
            if (conc::atomic<std::uint32_t>* w = s2.resolve()) {
                wake_list.push_back(w);
            }
            for (conc::atomic<std::uint32_t>* w : wake_list) {
                serve::detail::futex_wake_all(*w);
            }
        });
        w1.join();
        w2.join();
        resolver.join();
    });
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_TRUE(rep.complete) << rep.summary();
}

// ---------------------------------------------------------------------------
// ConcBell: the doorbell Dekker handshake (PR 9 satellite audit).
// ---------------------------------------------------------------------------

// The admission handshake reduced to its schedule-relevant skeleton: a
// producer publishes one unit of work (seq_cst, as submit_to_ring does)
// and rings; the consumer loops consume-or-park. `parker` and `ringer`
// default to the production doorbell; mutants substitute broken variants.
conc::report explore_bell_protocol(
    const conc::options& o,
    const std::function<void(serve::doorbell&, const std::function<bool()>&)>&
        parker,
    const std::function<void(serve::doorbell&)>& ringer)
{
    return conc::explore(o, [&] {
        serve::doorbell bell;
        conc::atomic<std::uint32_t> pending{0};
        bool consumed = false;
        conc::thread consumer([&] {
            while (!consumed) {
                if (pending.load(std::memory_order_seq_cst) > 0) {
                    pending.fetch_sub(1, std::memory_order_seq_cst);
                    consumed = true;
                } else {
                    parker(bell, [&] {
                        return pending.load(std::memory_order_seq_cst) > 0;
                    });
                }
            }
        });
        conc::thread producer([&] {
            pending.fetch_add(1, std::memory_order_seq_cst);
            ringer(bell);
        });
        consumer.join();
        producer.join();
        conc::require(consumed && pending.load() == 0,
                      "work consumed exactly once");
    });
}

void production_park(serve::doorbell& bell, const std::function<bool()>& keep)
{
    bell.park(keep);
}

void production_ring(serve::doorbell& bell) { bell.ring(); }

/// The batching window's hold: the same handshake with a timeout.
void timed_park(serve::doorbell& bell, const std::function<bool()>& keep)
{
    bell.park_for(keep, std::chrono::microseconds(50));
}

/// A ring that bumps the generation but drops the futex wake.
void ring_without_wake(serve::doorbell& bell)
{
    if (bell.parked.load(std::memory_order_seq_cst) > 0) {
        bell.word.fetch_add(1, std::memory_order_release);
        // mutant: futex_wake_all dropped
    }
}

TEST(ConcBell, SubmitNeverLosesAWakeAgainstPark)
{
    const conc::report rep =
        explore_bell_protocol(exhaustive(), production_park, production_ring);
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_TRUE(rep.complete) << rep.summary();
}

TEST(ConcBell, TimedParkNeverLosesASubmit)
{
    // A worker holding a batching window parks with a timeout. The engine
    // models the timeout firing as a spurious return and nothing more, so
    // if the timed parker only ever saw a submit because its timeout
    // fired, some schedule would end in a deadlock report. The ring must
    // wake a timed parker exactly as surely as an untimed one.
    const conc::report rep =
        explore_bell_protocol(exhaustive(), timed_park, production_ring);
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_TRUE(rep.complete) << rep.summary();
}

TEST(ConcBell, StopAlwaysWakesAParkedWorker)
{
    // The shutdown path: stop() sets the flag and rings unconditionally;
    // a worker parking concurrently must always observe one or the other.
    const conc::report rep = conc::explore(exhaustive(), [] {
        serve::doorbell bell;
        conc::atomic<bool> stopping{false};
        conc::thread worker([&] {
            int rounds = 0;
            while (!stopping.load(std::memory_order_acquire)) {
                bell.park([&] {
                    return stopping.load(std::memory_order_acquire);
                });
                conc::require(++rounds <= 4,
                              "worker re-parks without a stop signal");
            }
        });
        conc::thread stopper([&] {
            stopping.store(true, std::memory_order_release);
            bell.ring_always();
        });
        worker.join();
        stopper.join();
    });
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_TRUE(rep.complete) << rep.summary();
}

// ---------------------------------------------------------------------------
// ConcGate: the submit-vs-stop handshake (serve/gate.hpp).
// ---------------------------------------------------------------------------

// One submitter, one worker, one stop(). The submitter publishes one entry
// (seq_cst, as enqueue does) if `enter` admits it, then leaves the gate;
// the worker pops, or exits once the gate is sealed and nothing is
// pending. A worker that exits must leave nothing behind: an entry pushed
// after the last worker exited is a ticket that never resolves.
conc::report explore_gate_protocol(
    const conc::options& o,
    const std::function<bool(serve::admission_gate&)>& enter)
{
    return conc::explore(o, [&] {
        serve::admission_gate gate;
        conc::atomic<std::uint32_t> pending{0};
        bool admitted = false;
        bool consumed = false;
        bool exited = false;
        conc::thread submitter([&] {
            if (enter(gate)) {
                admitted = true;
                pending.fetch_add(1, std::memory_order_seq_cst);
                gate.leave();
            }
        });
        conc::thread worker([&] {
            for (int round = 0; round < 3 && !exited; ++round) {
                if (pending.load(std::memory_order_seq_cst) > 0) {
                    pending.fetch_sub(1, std::memory_order_seq_cst);
                    consumed = true;
                } else if (gate.sealed() &&
                           pending.load(std::memory_order_seq_cst) == 0) {
                    exited = true;
                }
            }
        });
        conc::thread stopper([&] { gate.close(); });
        submitter.join();
        worker.join();
        stopper.join();
        conc::require(!exited || admitted == consumed,
                      "no entry is published after the worker exits");
    });
}

TEST(ConcGate, SubmitRacingStopNeverOrphansAnEntry)
{
    const conc::report rep = explore_gate_protocol(
        exhaustive(), [](serve::admission_gate& g) { return g.try_enter(); });
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_TRUE(rep.complete) << rep.summary();
}

// ---------------------------------------------------------------------------
// ConcShard: the breaker's lock-free flag and the lane guard's CAS machine.
// ---------------------------------------------------------------------------

TEST(ConcShard, BreakerSuspendedFlagIsMonotoneOverCooldown)
{
    // The breaker's plain fields are service-mutex-guarded; `suspended` is
    // the lock-free mirror the dispatch loop reads per batch. A tripped
    // breaker must read true for exactly the cooldown, then false.
    const conc::report rep = conc::explore(exhaustive(), [] {
        shard::breaker brk;
        conc::mutex m;
        conc::thread observer([&] {
            m.lock();
            brk.observe(true, 0.5, 1, 2);  // 1/1 faulted trips, cooldown 2
            m.unlock();
        });
        conc::thread reader([&] {
            // Lock-free read concurrent with the trip: either state is
            // fine, what matters is that it is not a data race.
            (void)brk.suspended.load(std::memory_order_acquire);
        });
        observer.join();
        reader.join();
        conc::require(brk.suspended.load(std::memory_order_acquire),
                      "tripped breaker suspends coalescing");
        m.lock();
        brk.observe(false, 0.5, 1, 2);
        m.unlock();
        conc::require(brk.suspended.load(std::memory_order_acquire),
                      "still suspended mid-cooldown");
        m.lock();
        brk.observe(false, 0.5, 1, 2);
        m.unlock();
        conc::require(!brk.suspended.load(std::memory_order_acquire),
                      "cooldown exhausted resumes coalescing");
    });
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_TRUE(rep.complete) << rep.summary();
}

TEST(ConcShard, RacingEvictionsHaveExactlyOneWinner)
{
    // A worker exhausting its retries and the hang watchdog can race to
    // declare the same lane lost. The eviction CAS must admit exactly one
    // winner under every interleaving — the winner drains and migrates the
    // lane's queue, the loser must see `available()` already false and
    // back off — and the eviction counter must count the event once.
    const conc::report rep = conc::explore(exhaustive(), [] {
        shard::lane_guard guard;
        int winners = 0;
        conc::mutex m;
        auto contender = [&] {
            const bool won = guard.try_evict();
            m.lock();
            if (won) {
                ++winners;
            }
            m.unlock();
            conc::require(won || !guard.available(),
                          "loser observes the lane as already evicted");
        };
        conc::thread worker(contender);
        conc::thread watchdog(contender);
        worker.join();
        watchdog.join();
        conc::require(winners == 1, "exactly one eviction winner");
        conc::require(guard.evictions.load() == 1,
                      "the race counts as one eviction");
        conc::require(guard.current() == shard::lane_state::evicted,
                      "lane ends evicted");
    });
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_TRUE(rep.complete) << rep.summary();
}

TEST(ConcShard, HalfOpenProbeAdmitsOneProberAcrossSchedules)
{
    // Two evicted-lane workers race for the half-open probe slot while a
    // third keeps asking "is this lane alive?" lock-free. Exactly one
    // prober wins; after its failed probe the lane is evicted again and
    // the next claim succeeds — the re-trip path of the half-open state.
    const conc::report rep = conc::explore(exhaustive(1), [] {
        shard::lane_guard guard;
        conc::require(guard.try_evict(), "setup eviction");
        int probers = 0;
        conc::mutex m;
        auto claimant = [&] {
            if (guard.try_begin_probe()) {
                m.lock();
                ++probers;
                m.unlock();
            }
        };
        conc::thread p1(claimant);
        conc::thread p2(claimant);
        conc::thread reader([&] {
            conc::require(!guard.available(),
                          "evicted/probing lane never reads available");
        });
        p1.join();
        p2.join();
        reader.join();
        conc::require(probers == 1, "one half-open probe at a time");
        guard.probe_failed();
        conc::require(guard.current() == shard::lane_state::evicted,
                      "failed probe re-trips the eviction");
        conc::require(guard.try_begin_probe(),
                      "cooldown re-arms: next claim admitted");
        guard.probe_succeeded();
        conc::require(guard.available(),
                      "successful probe restores routing weight");
    });
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_TRUE(rep.complete) << rep.summary();
}

// ---------------------------------------------------------------------------
// ConcMutant: seeded defects the checker must catch (detector teeth).
// ---------------------------------------------------------------------------

// Orders mutants derive from the production traits and weaken exactly one
// member, so the *production* ring code runs with one load-bearing order
// removed.
struct publish_relaxed : serve::ring_orders {
    static constexpr std::memory_order publish = std::memory_order_relaxed;
};
struct seq_load_relaxed : serve::ring_orders {
    static constexpr std::memory_order seq_load = std::memory_order_relaxed;
};
struct retire_relaxed : serve::ring_orders {
    static constexpr std::memory_order retire = std::memory_order_relaxed;
};

TEST(ConcMutant, RingRelaxedPublishIsCaught)
{
    const conc::report rep =
        explore_ring_1p1c<publish_relaxed>(exhaustive(), 4, 0, 2, 4);
    ASSERT_FALSE(rep.ok) << "weakened publish order went undetected: "
                         << rep.summary();
    EXPECT_NE(rep.failure.find("data race"), std::string::npos) << rep.failure;
}

TEST(ConcMutant, RingRelaxedSeqLoadIsCaught)
{
    const conc::report rep =
        explore_ring_1p1c<seq_load_relaxed>(exhaustive(), 4, 0, 2, 4);
    ASSERT_FALSE(rep.ok) << "weakened seq_load order went undetected: "
                         << rep.summary();
    EXPECT_NE(rep.failure.find("data race"), std::string::npos) << rep.failure;
}

TEST(ConcMutant, RingRelaxedRetireIsCaughtOnCellReuse)
{
    // The retire edge only matters a lap later: capacity 2, three items,
    // so the third push reuses the first cell.
    const conc::report rep =
        explore_ring_1p1c<retire_relaxed>(exhaustive(), 2, 0, 3, 4);
    ASSERT_FALSE(rep.ok) << "weakened retire order went undetected: "
                         << rep.summary();
    EXPECT_NE(rep.failure.find("data race"), std::string::npos) << rep.failure;
}

TEST(ConcMutant, SlotRelaxedResolveIsCaught)
{
    // The resolver's exchange must be (at least) release: relaxed breaks
    // the payload publication and the waiter reads the reply racily. The
    // waiter side is the production wait_and_take.
    const conc::report rep = conc::explore(exhaustive(), [] {
        serve::detail::reply_slot<int> slot;
        conc::thread waiter([&] { (void)slot.wait_and_take(); });
        conc::thread resolver([&] {
            slot.store_reply(7);
            const std::uint32_t old = slot.state.exchange(
                serve::detail::slot_ready, std::memory_order_relaxed);
            if (old == serve::detail::slot_pending_waiting) {
                serve::detail::futex_wake_all(slot.state);
            }
        });
        waiter.join();
        resolver.join();
    });
    ASSERT_FALSE(rep.ok) << "relaxed resolve went undetected: " << rep.summary();
    EXPECT_NE(rep.failure.find("data race"), std::string::npos) << rep.failure;
}

TEST(ConcMutant, SlotResolveWithoutWakeIsCaughtAsDeadlock)
{
    // A resolver that publishes ready but skips the waiter-bit handshake
    // (plain store, no wake) strands any registered waiter: the schedule
    // where the waiter parked first must be reported as a lost wake.
    const conc::report rep = conc::explore(exhaustive(), [] {
        serve::detail::reply_slot<int> slot;
        conc::thread waiter([&] { (void)slot.wait_and_take(); });
        conc::thread resolver([&] {
            slot.store_reply(7);
            slot.state.store(serve::detail::slot_ready,
                             std::memory_order_release);
        });
        waiter.join();
        resolver.join();
    });
    ASSERT_FALSE(rep.ok) << "dropped wake went undetected: " << rep.summary();
    EXPECT_NE(rep.failure.find("deadlock"), std::string::npos) << rep.failure;
}

TEST(ConcMutant, DoorbellRingWithoutWakeIsCaughtAsDeadlock)
{
    // Bumping the generation without the futex wake leaves an already-
    // sleeping worker asleep forever (the futex checks the word only at
    // sleep time).
    const conc::report rep =
        explore_bell_protocol(exhaustive(), production_park, ring_without_wake);
    ASSERT_FALSE(rep.ok) << "dropped doorbell wake went undetected: "
                         << rep.summary();
    EXPECT_NE(rep.failure.find("deadlock"), std::string::npos) << rep.failure;
}

TEST(ConcMutant, TimedParkDoesNotMaskADroppedWake)
{
    // The timeout must not hide a lost wake from the checker: a timed
    // parker facing a ring that never wakes it is still a deadlock.
    const conc::report rep =
        explore_bell_protocol(exhaustive(), timed_park, ring_without_wake);
    ASSERT_FALSE(rep.ok) << "dropped wake hidden by a timed park: "
                         << rep.summary();
    EXPECT_NE(rep.failure.find("deadlock"), std::string::npos) << rep.failure;
}

TEST(ConcMutant, DoorbellParkCheckBeforeRegisterIsCaught)
{
    // The satellite-audit regression: the Dekker handshake requires
    // parked++ *before* the predicate re-check. Flipping the order opens
    // the classic missed-wake window — producer sees parked == 0 and
    // skips the ring, consumer saw no pending work and sleeps.
    const conc::report rep = explore_bell_protocol(
        exhaustive(),
        [](serve::doorbell& bell, const std::function<bool()>& keep_awake) {
            const std::uint32_t heard =
                bell.word.load(std::memory_order_acquire);
            const bool awake = keep_awake();  // mutant: before parked++
            bell.parked.fetch_add(1, std::memory_order_seq_cst);
            if (!awake && bell.word.load(std::memory_order_acquire) == heard) {
                serve::detail::futex_wait(bell.word, heard);
            }
            bell.parked.fetch_sub(1, std::memory_order_seq_cst);
        },
        production_ring);
    ASSERT_FALSE(rep.ok) << "flipped Dekker order went undetected: "
                         << rep.summary();
    EXPECT_NE(rep.failure.find("deadlock"), std::string::npos) << rep.failure;
}

TEST(ConcMutant, DoorbellParkFreshExpectedIsCaught)
{
    // The other satellite-audit regression: sleeping on a *fresh* read of
    // the word instead of the generation heard before registering erases
    // the ring that landed in between — the futex value check then
    // matches and the worker sleeps through its own wake.
    const conc::report rep = explore_bell_protocol(
        exhaustive(),
        [](serve::doorbell& bell, const std::function<bool()>& keep_awake) {
            bell.parked.fetch_add(1, std::memory_order_seq_cst);
            if (!keep_awake()) {
                serve::detail::futex_wait(
                    bell.word,
                    bell.word.load(std::memory_order_acquire));  // mutant
            }
            bell.parked.fetch_sub(1, std::memory_order_seq_cst);
        },
        production_ring);
    ASSERT_FALSE(rep.ok) << "fresh-expected park went undetected: "
                         << rep.summary();
    EXPECT_NE(rep.failure.find("deadlock"), std::string::npos) << rep.failure;
}

TEST(ConcMutant, GateCheckBeforeRegisterIsCaught)
{
    // try_enter with its Dekker order flipped: the submitter reads the
    // flag before registering, so stop() and the worker's exit test can
    // both slip in between and the submitter's push lands after the
    // worker is gone.
    const conc::report rep =
        explore_gate_protocol(exhaustive(), [](serve::admission_gate& g) {
            const bool open = !g.shut.load(std::memory_order_seq_cst);
            g.entering.fetch_add(1, std::memory_order_seq_cst);  // mutant
            if (!open) {
                g.leave();
            }
            return open;
        });
    ASSERT_FALSE(rep.ok) << "flipped gate order went undetected: "
                         << rep.summary();
    EXPECT_NE(rep.failure.find("property violated"), std::string::npos)
        << rep.failure;
}

}  // namespace
