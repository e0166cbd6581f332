#include "conc/engine.hpp"

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

namespace batchlin::conc {

namespace {

thread_local engine* g_engine = nullptr;
thread_local int g_tid = 0;

std::uint32_t bit(int tid) { return 1u << static_cast<unsigned>(tid); }

std::string format_site(const site& s) {
    // Trim the path to the basename: traces stay readable in test logs.
    const char* base = s.file;
    for (const char* p = s.file; *p; ++p) {
        if (*p == '/') {
            base = p + 1;
        }
    }
    return std::string(base) + ":" + std::to_string(s.line);
}

std::string format_addr(const void* p) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%p", p);
    return std::string(buf);
}

bool is_acquire(std::memory_order mo) {
    return mo == std::memory_order_acquire || mo == std::memory_order_acq_rel ||
           mo == std::memory_order_seq_cst || mo == std::memory_order_consume;
}

bool is_release(std::memory_order mo) {
    return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
           mo == std::memory_order_seq_cst;
}

}  // namespace

std::string report::summary() const {
    std::string s = ok ? "ok" : "FAILED";
    s += " after " + std::to_string(schedules) + " schedules (+" +
         std::to_string(pruned) + " pruned)";
    if (ok && complete) {
        s += ", state space complete";
    }
    if (!ok) {
        s += "\n  " + failure + "\n  " + trace;
    }
    return s;
}

engine* engine::active() { return g_engine; }
int engine::self() { return g_tid; }
int engine::cur_tid() { return g_tid; }

engine::engine(const options& opts) : opts_(opts) {
    for (int i = 0; i < max_threads; ++i) {
        t_[static_cast<std::size_t>(i)].tid = i;
    }
}

engine::~engine() {
    // Defensive: a run that ended via explore() leaves no live OS threads.
    for (auto& t : t_) {
        if (t.os.joinable()) {
            aborting_ = true;
            if (t.parked) {
                t.sem.release();
            }
            t.os.join();
        }
    }
}

std::string engine::describe(const op_desc& d) {
    const char* k = "?";
    switch (d.kind) {
        case op_kind::none: k = "none"; break;
        case op_kind::atomic_load: k = "load"; break;
        case op_kind::atomic_store: k = "store"; break;
        case op_kind::atomic_rmw: k = "rmw"; break;
        case op_kind::mutex_lock: k = "lock"; break;
        case op_kind::mutex_unlock: k = "unlock"; break;
        case op_kind::futex_wait: k = "futex_wait"; break;
        case op_kind::futex_wake: k = "futex_wake"; break;
        case op_kind::thread_spawn: k = "spawn"; break;
        case op_kind::thread_join: k = "join"; break;
        case op_kind::thread_start: k = "start"; break;
        case op_kind::resume: k = "resume"; break;
        case op_kind::yield: k = "yield"; break;
    }
    return std::string(k) + "@" + format_site(d.where);
}

std::string engine::trace_string() const {
    std::string s = "schedule";
    if (opts_.mode == explore_mode::random) {
        s += " (seed " + std::to_string(opts_.seed0 + static_cast<std::uint64_t>(run_index_)) + ")";
    }
    s += ":";
    const std::size_t cap = 256;
    const std::size_t n = run_trace_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (n > cap && i == cap / 2) {
            s += " ...";
            i = n - cap / 2;
        }
        s += " t" + std::to_string(run_trace_[i].tid);
        if (run_trace_[i].spurious) {
            s += "~";  // spurious futex wake injected here
        }
    }
    return s;
}

void engine::fail_nothrow(const std::string& what) {
    if (!failed_) {
        failed_ = true;
        failure_ = what;
        failure_trace_ = trace_string();
    }
    aborting_ = true;
}

void engine::fail(const std::string& what, const site& s) {
    fail_nothrow(what + " [" + format_site(s) + "]");
    thread_rec& me = cur();
    if (std::uncaught_exceptions() > 0) {
        // Detected mid-unwind (e.g. a dtor touching shared state): let the
        // in-flight exception carry the abort instead of double-throwing.
        me.unwinding = true;
        return;
    }
    deliver_abort(me);
}

void engine::deliver_abort(thread_rec& me) {
    if (me.unwinding) {
        return;  // ops during unwind execute raw, without scheduling
    }
    me.unwinding = true;
    throw abort_execution{};
}

std::string engine::deadlock_message() const {
    std::string msg = "deadlock: every live thread is blocked —";
    for (int i = 0; i < nthreads_; ++i) {
        const thread_rec& t = t_[static_cast<std::size_t>(i)];
        if (t.st == tstat::finished || t.st == tstat::runnable) {
            continue;
        }
        const char* why = t.st == tstat::blocked_futex   ? "futex_wait"
                          : t.st == tstat::blocked_mutex ? "mutex"
                                                         : "join";
        msg += " t" + std::to_string(i) + " in " + why + " at " +
               format_site(t.blocked_at) + ";";
    }
    return msg;
}

bool engine::dependent(const op_desc& a, const op_desc& b) {
    if (a.obj == nullptr || b.obj == nullptr) {
        return true;  // thread events / resumes: conservatively dependent
    }
    if (a.obj != b.obj) {
        return false;
    }
    // Two loads of the same atomic commute; anything else on one object
    // (store/RMW/futex/mutex) conflicts.
    return !(a.kind == op_kind::atomic_load && b.kind == op_kind::atomic_load);
}

engine::choice engine::choose(const std::vector<choice>& allowed, bool finishing) {
    choice ch{};
    if (opts_.mode == explore_mode::random) {
        if (allowed.size() == 1) {
            ch = allowed[0];
        } else {
            std::uniform_int_distribution<std::size_t> d(0, allowed.size() - 1);
            ch = allowed[d(rng_)];
        }
    } else {
        // A thread finishing is dependent with everything (it enables joins
        // and removes an actor), so nothing stays asleep across it.
        if (finishing) {
            sleep_ = 0;
        }
        std::vector<choice> effective;
        effective.reserve(allowed.size());
        for (const choice& c : allowed) {
            if (c.spurious || (sleep_ & bit(c.tid)) == 0) {
                effective.push_back(c);
            }
        }
        if (effective.empty()) {
            // Every candidate is asleep: this schedule is equivalent to an
            // already-explored sibling. Abandon it silently.
            pruned_flag_ = true;
            aborting_ = true;
            throw abort_execution{};
        }
        if (effective.size() == 1) {
            ch = effective[0];
        } else {
            if (depth_ == path_.size()) {
                path_.push_back(node{effective, 0});
            }
            node& nd = path_[depth_];
            if (nd.all.size() != effective.size()) {
                fail_nothrow("nondeterministic test body: replay diverged at depth " +
                             std::to_string(depth_));
                ch = effective[0];
            } else {
                ch = nd.all[nd.next];
                // Branches explored before this one stay asleep below here
                // until a dependent op wakes them (sleep-set/DPOR-lite).
                for (std::size_t i = 0; i < nd.next; ++i) {
                    if (!nd.all[i].spurious) {
                        sleep_ |= bit(nd.all[i].tid);
                    }
                }
            }
            ++depth_;
        }
    }
    // The chosen thread's op executes next: wake every slept thread whose
    // pending op is dependent with it.
    if (opts_.mode == explore_mode::exhaustive) {
        if (ch.spurious) {
            sleep_ = 0;  // wake injection is conservatively dependent with all
        } else {
            const op_desc& ex = t_[static_cast<std::size_t>(ch.tid)].pending;
            std::uint32_t ns = 0;
            for (int i = 0; i < nthreads_; ++i) {
                if ((sleep_ & bit(i)) != 0 &&
                    !dependent(ex, t_[static_cast<std::size_t>(i)].pending)) {
                    ns |= bit(i);
                }
            }
            sleep_ = ns & ~bit(ch.tid);
        }
    }
    run_trace_.push_back(ch);
    return ch;
}

void engine::apply_spurious(const choice& ch) {
    thread_rec& t = t_[static_cast<std::size_t>(ch.tid)];
    --t.spurious_credits;
    t.st = tstat::runnable;
    t.woke_spurious = true;
    t.pending = op_desc{op_kind::resume, t.wait_obj, t.blocked_at};
    t.wait_obj = nullptr;
}

void engine::decide_and_switch(thread_rec& me, bool finishing) {
    std::vector<choice> allowed;
    const bool me_runnable = !finishing && me.st == tstat::runnable;
    const bool forced_self = me_runnable && opts_.preemption_bound >= 0 &&
                             preemptions_ >= opts_.preemption_bound;
    if (forced_self) {
        allowed.push_back(choice{me.tid, false});
    } else {
        for (int i = 0; i < nthreads_; ++i) {
            if (t_[static_cast<std::size_t>(i)].st == tstat::runnable) {
                allowed.push_back(choice{i, false});
            }
        }
        if (allowed.empty()) {
            bool any_live = false;
            for (int i = 0; i < nthreads_; ++i) {
                if (t_[static_cast<std::size_t>(i)].st != tstat::finished) {
                    any_live = true;
                }
            }
            if (!any_live) {
                return;  // final thread finishing; nothing left to run
            }
            // Lost wake / stuck protocol. Spurious wakeups deliberately do
            // not rescue a deadlock: a protocol must not rely on them.
            if (finishing) {
                fail_nothrow(deadlock_message());
                if (t_[0].parked) {
                    t_[0].sem.release();
                }
                return;
            }
            fail(deadlock_message(), me.blocked_at);
            return;  // unwinding thread falls through
        }
        if (opts_.spurious_wakeups > 0) {
            for (int i = 0; i < nthreads_; ++i) {
                const thread_rec& t = t_[static_cast<std::size_t>(i)];
                if (t.st == tstat::blocked_futex && t.spurious_credits > 0) {
                    allowed.push_back(choice{i, true});
                }
            }
        }
    }
    choice ch = choose(allowed, finishing);
    if (ch.spurious) {
        apply_spurious(ch);
    }
    if (ch.tid == me.tid && !ch.spurious && !finishing) {
        return;  // keep running
    }
    if (me_runnable && ch.tid != me.tid) {
        ++preemptions_;  // involuntary switch away from a runnable thread
    }
    if (finishing) {
        t_[static_cast<std::size_t>(ch.tid)].sem.release();
        return;  // caller's OS thread exits; it never parks again
    }
    // Mark this thread parked before handing the baton on: the thread it
    // wakes may abort at once and, finishing, release this semaphore only
    // if it reads `parked` as true. Set after the release, that read could
    // race ahead of the store and leave this thread asleep forever.
    me.parked = true;
    t_[static_cast<std::size_t>(ch.tid)].sem.release();
    me.sem.acquire();
    me.parked = false;
    if (aborting_) {
        deliver_abort(me);
    }
}

void engine::op_point(op_kind kind, const void* obj, const site& s) {
    thread_rec& me = cur();
    if (aborting_) {
        deliver_abort(me);
        return;  // unwinding: execute raw
    }
    me.pending = op_desc{kind, obj, s};
    if (++ops_ > opts_.max_ops_per_run) {
        fail("schedule exceeded max_ops_per_run=" + std::to_string(opts_.max_ops_per_run) +
                 " (livelock or unbounded retry loop?)",
             s);
        return;
    }
    decide_and_switch(me, false);
    ++me.clock.c[static_cast<std::size_t>(me.tid)];
}

void engine::sync_acquire(const void* obj, std::memory_order mo) {
    if (aborting_ || !is_acquire(mo)) {
        return;
    }
    cur().clock.join(sync_[obj]);
}

void engine::sync_store(const void* obj, std::memory_order mo) {
    if (aborting_) {
        return;
    }
    if (is_release(mo)) {
        sync_[obj] = cur().clock;
    } else {
        // A relaxed store breaks any release sequence headed on this object.
        sync_[obj].clear();
    }
}

void engine::sync_rmw(const void* obj, std::memory_order mo) {
    if (aborting_) {
        return;
    }
    vclock& rel = sync_[obj];
    if (is_acquire(mo)) {
        cur().clock.join(rel);
    }
    if (is_release(mo)) {
        rel.join(cur().clock);
    }
    // A relaxed RMW continues the release sequence: rel stays as-is.
}

void engine::futex_wait(const void* obj, const std::atomic<std::uint32_t>& word,
                        std::uint32_t expected, const site& s) {
    op_point(op_kind::futex_wait, obj, s);
    if (aborting_) {
        return;
    }
    if (word.load(std::memory_order_relaxed) != expected) {
        return;  // value already moved on: no sleep
    }
    thread_rec& me = cur();
    me.st = tstat::blocked_futex;
    me.wait_obj = obj;
    me.blocked_at = s;
    me.woke_spurious = false;
    decide_and_switch(me, false);
    // Back: a futex_wake, a spurious wake, or abort. A futex grants no
    // happens-before edge — ordering must come from the word itself.
}

void engine::futex_wake_all(const void* obj, const site& s) {
    op_point(op_kind::futex_wake, obj, s);
    if (aborting_) {
        return;
    }
    for (int i = 0; i < nthreads_; ++i) {
        thread_rec& t = t_[static_cast<std::size_t>(i)];
        if (t.st == tstat::blocked_futex && t.wait_obj == obj) {
            t.st = tstat::runnable;
            t.pending = op_desc{op_kind::resume, obj, t.blocked_at};
            t.wait_obj = nullptr;
        }
    }
}

void engine::mutex_lock(const void* obj, const site& s) {
    for (;;) {
        op_point(op_kind::mutex_lock, obj, s);
        if (aborting_) {
            return;
        }
        int& owner = mutex_owner_.try_emplace(obj, -1).first->second;
        thread_rec& me = cur();
        if (owner < 0) {
            owner = me.tid;
            me.clock.join(sync_[obj]);
            return;
        }
        me.st = tstat::blocked_mutex;
        me.wait_obj = obj;
        me.blocked_at = s;
        decide_and_switch(me, false);
        // Woken by unlock: loop and contend again.
    }
}

bool engine::mutex_try_lock(const void* obj, const site& s) {
    op_point(op_kind::mutex_lock, obj, s);
    if (aborting_) {
        return true;  // unwinding: pretend success so unlock pairs up
    }
    int& owner = mutex_owner_.try_emplace(obj, -1).first->second;
    thread_rec& me = cur();
    if (owner < 0) {
        owner = me.tid;
        me.clock.join(sync_[obj]);
        return true;
    }
    return false;
}

void engine::mutex_unlock(const void* obj, const site& s) {
    op_point(op_kind::mutex_unlock, obj, s);
    if (aborting_) {
        return;
    }
    thread_rec& me = cur();
    auto it = mutex_owner_.find(obj);
    if (it == mutex_owner_.end() || it->second != me.tid) {
        fail("mutex unlocked by non-owner", s);
        return;
    }
    it->second = -1;
    sync_[obj] = me.clock;
    for (int i = 0; i < nthreads_; ++i) {
        thread_rec& t = t_[static_cast<std::size_t>(i)];
        if (t.st == tstat::blocked_mutex && t.wait_obj == obj) {
            t.st = tstat::runnable;
            t.pending = op_desc{op_kind::mutex_lock, obj, t.blocked_at};
            t.wait_obj = nullptr;
        }
    }
}

void engine::yield(const site& s) { op_point(op_kind::yield, nullptr, s); }

void engine::plain_read(const void* addr, const site& s) {
    if (aborting_) {
        return;
    }
    thread_rec& me = cur();
    loc_state& loc = mem_[addr];
    const access_rec& w = loc.write;
    if (w.tid >= 0 && w.tid != me.tid &&
        w.epoch > me.clock.c[static_cast<std::size_t>(w.tid)]) {
        fail("data race on " + format_addr(addr) + ": write by t" + std::to_string(w.tid) +
                 " at " + format_site(w.where) + " is unordered with read by t" +
                 std::to_string(me.tid) + " at " + format_site(s),
             s);
        return;
    }
    loc.reads[static_cast<std::size_t>(me.tid)] =
        access_rec{me.tid, me.clock.c[static_cast<std::size_t>(me.tid)], s};
}

void engine::plain_write(const void* addr, const site& s) {
    if (aborting_) {
        return;
    }
    thread_rec& me = cur();
    loc_state& loc = mem_[addr];
    const access_rec& w = loc.write;
    if (w.tid >= 0 && w.tid != me.tid &&
        w.epoch > me.clock.c[static_cast<std::size_t>(w.tid)]) {
        fail("data race on " + format_addr(addr) + ": write by t" + std::to_string(w.tid) +
                 " at " + format_site(w.where) + " is unordered with write by t" +
                 std::to_string(me.tid) + " at " + format_site(s),
             s);
        return;
    }
    for (const access_rec& r : loc.reads) {
        if (r.tid >= 0 && r.tid != me.tid &&
            r.epoch > me.clock.c[static_cast<std::size_t>(r.tid)]) {
            fail("data race on " + format_addr(addr) + ": read by t" + std::to_string(r.tid) +
                     " at " + format_site(r.where) + " is unordered with write by t" +
                     std::to_string(me.tid) + " at " + format_site(s),
                 s);
            return;
        }
    }
    loc.reads.fill(access_rec{});
    loc.write = access_rec{me.tid, me.clock.c[static_cast<std::size_t>(me.tid)], s};
}

int engine::spawn(std::function<void()> body, const site& s) {
    op_point(op_kind::thread_spawn, nullptr, s);
    thread_rec& me = cur();
    if (nthreads_ >= max_threads) {
        fail("too many conc::threads (max " + std::to_string(max_threads - 1) +
                 " spawned)",
             s);
        return 0;
    }
    const int tid = nthreads_++;
    thread_rec& t = t_[static_cast<std::size_t>(tid)];
    t.pending = op_desc{op_kind::thread_start, nullptr, s};
    t.clock = me.clock;  // the child starts after everything the parent did
    t.final_clock.clear();
    t.wait_obj = nullptr;
    t.woke_spurious = false;
    t.spurious_credits = opts_.spurious_wakeups;
    t.unwinding = false;
    t.started = false;
    t.os_joined = false;
    t.body = std::move(body);
    if (aborting_) {
        // Spawn during abort-unwind: never start the body; the handle's
        // join/dtor sees a finished, already-joined thread.
        t.st = tstat::finished;
        t.parked = false;
        t.os_joined = true;
        return tid;
    }
    t.st = tstat::runnable;
    t.parked = true;  // the wrapper's first action is to wait for a grant
    t.os = std::thread(&engine::wrapper, this, tid);
    return tid;
}

void engine::wrapper(int tid) {
    g_engine = this;
    g_tid = tid;
    thread_rec& me = t_[static_cast<std::size_t>(tid)];
    me.sem.acquire();
    me.parked = false;
    if (!aborting_) {
        me.started = true;
        ++me.clock.c[static_cast<std::size_t>(tid)];
        try {
            me.body();
        } catch (const abort_execution&) {
        } catch (const std::exception& ex) {
            fail_nothrow(std::string("exception escaped conc::thread body: ") + ex.what());
        } catch (...) {
            fail_nothrow("unknown exception escaped conc::thread body");
        }
    }
    finish_thread(tid);
    g_engine = nullptr;
}

void engine::finish_thread(int tid) {
    thread_rec& me = t_[static_cast<std::size_t>(tid)];
    me.final_clock = me.clock;
    me.st = tstat::finished;
    for (int i = 0; i < nthreads_; ++i) {
        thread_rec& t = t_[static_cast<std::size_t>(i)];
        if (t.st == tstat::blocked_join && t.wait_obj == &me) {
            t.st = tstat::runnable;
            t.pending = op_desc{op_kind::resume, nullptr, t.blocked_at};
            t.wait_obj = nullptr;
        }
    }
    if (aborting_) {
        // Unwind protocol: the root drains children one at a time from its
        // conc::thread destructors; hand it the baton if it is parked.
        if (t_[0].parked) {
            t_[0].sem.release();
        }
        return;
    }
    decide_and_switch(me, true);
}

void engine::join_thread(int tid, const site& s) {
    thread_rec& target = t_[static_cast<std::size_t>(tid)];
    for (;;) {
        op_point(op_kind::thread_join, &target, s);
        if (aborting_) {
            break;
        }
        if (target.st == tstat::finished) {
            cur().clock.join(target.final_clock);
            break;
        }
        thread_rec& me = cur();
        me.st = tstat::blocked_join;
        me.wait_obj = &target;
        me.blocked_at = s;
        decide_and_switch(me, false);
    }
    if (aborting_ && target.st != tstat::finished && target.parked) {
        target.sem.release();  // drive the child through its abort-unwind
    }
    if (target.os.joinable()) {
        target.os.join();
    }
    target.os_joined = true;
}

void engine::drain_unjoined(int tid) {
    thread_rec& target = t_[static_cast<std::size_t>(tid)];
    if (!aborting_ && target.st != tstat::finished) {
        fail_nothrow("conc::thread destroyed without join()");
    }
    if (target.st != tstat::finished && target.parked) {
        target.sem.release();
    }
    if (target.os.joinable()) {
        target.os.join();
    }
    target.os_joined = true;
}

void engine::begin_run() {
    aborting_ = false;
    pruned_flag_ = false;
    ops_ = 0;
    preemptions_ = 0;
    depth_ = 0;
    sleep_ = 0;
    run_trace_.clear();
    sync_.clear();
    mem_.clear();
    mutex_owner_.clear();
    nthreads_ = 1;
    for (auto& t : t_) {
        t.st = tstat::finished;
        t.pending = op_desc{};
        t.clock.clear();
        t.final_clock.clear();
        t.parked = false;
        t.wait_obj = nullptr;
        t.blocked_at = site{};
        t.woke_spurious = false;
        t.spurious_credits = opts_.spurious_wakeups;
        t.unwinding = false;
        t.started = false;
        t.os_joined = true;
        t.body = nullptr;
        while (t.sem.try_acquire()) {
            // drain permits left over from an aborted schedule
        }
    }
    t_[0].st = tstat::runnable;
    t_[0].started = true;
    if (opts_.mode == explore_mode::random) {
        rng_.seed(opts_.seed0 + static_cast<std::uint64_t>(run_index_));
    }
    g_engine = this;
    g_tid = 0;
}

void engine::end_run() {
    g_engine = nullptr;
    // Safety net: no spawned OS thread may outlive its run.
    for (int i = 1; i < nthreads_; ++i) {
        thread_rec& t = t_[static_cast<std::size_t>(i)];
        if (t.os.joinable()) {
            aborting_ = true;
            if (t.st != tstat::finished && t.parked) {
                t.sem.release();
            }
            t.os.join();
            t.os_joined = true;
        }
    }
    if (pruned_flag_ && !failed_) {
        ++pruned_;
    } else {
        ++schedules_;
    }
    if (opts_.mode == explore_mode::exhaustive) {
        while (!path_.empty()) {
            node& b = path_.back();
            if (b.next + 1 < b.all.size()) {
                ++b.next;
                break;
            }
            path_.pop_back();
        }
    }
    ++run_index_;
}

bool engine::advance() {
    if (failed_) {
        return true;
    }
    if (opts_.mode == explore_mode::exhaustive) {
        return path_.empty() || schedules_ + pruned_ >= opts_.max_schedules;
    }
    return run_index_ >= opts_.seeds;
}

report explore(const options& opts, const std::function<void()>& body) {
    report rep;
    engine eng(opts);
    for (;;) {
        eng.begin_run();
        try {
            body();
        } catch (const abort_execution&) {
        } catch (const std::exception& ex) {
            eng.fail_nothrow(std::string("exception escaped test body: ") + ex.what());
        } catch (...) {
            eng.fail_nothrow("unknown exception escaped test body");
        }
        eng.end_run();
        if (eng.advance()) {
            break;
        }
    }
    rep.ok = !eng.failed_;
    rep.schedules = eng.schedules_;
    rep.pruned = eng.pruned_;
    if (!rep.ok) {
        rep.failure = eng.failure_;
        rep.trace = eng.failure_trace_;
    } else if (eng.opts_.mode == explore_mode::exhaustive) {
        rep.complete = eng.path_.empty();
    }
    return rep;
}

void require(bool cond, const char* what, const std::source_location& loc) {
    if (cond) {
        return;
    }
    if (engine* e = engine::active()) {
        e->fail(std::string("property violated: ") + what, to_site(loc));
        return;
    }
    throw std::logic_error(std::string("conc::require failed outside engine: ") + what);
}

}  // namespace batchlin::conc
