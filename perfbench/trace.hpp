// In-memory span recorder of the traced run.
//
// perfbench records spans around its own calls into the library (input
// generation, `solver::solve`, `submit`, `get`) and derives child spans
// from what the library reports back (queue launch records, the
// `queue_seconds` / `solve_seconds` reply fields). Spans stay in memory and
// are written once, at the end, as a Chrome trace-event file (load it in
// chrome://tracing or Perfetto).
//
// A span's self time is its duration minus the part of its interval that
// its children cover (children clipped to the parent, overlaps merged).
// Not thread-safe: each phase of a run records from one thread only.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "report.hpp"

namespace perfbench {

using steady = std::chrono::steady_clock;

/// Microseconds since the first call in the process (the run epoch).
inline double now_us()
{
    static const steady::time_point epoch = steady::now();
    return std::chrono::duration<double, std::micro>(steady::now() - epoch)
        .count();
}

struct span {
    const char* name = "";
    double start_us = 0.0;
    double end_us = 0.0;
    std::int64_t parent = -1;
    /// Request (serve) or call (pele_newton) the span belongs to; -1 for
    /// run-level spans such as `generate`.
    std::int64_t request = -1;
};

struct self_time {
    double total_us = 0.0;
    std::size_t count = 0;
    double mean_us() const
    {
        return count ? total_us / static_cast<double>(count) : 0.0;
    }
};

class tracer {
public:
    /// `max_spans` bounds memory and the trace file: once reached, whole
    /// requests stop being recorded (see `has_room`).
    tracer(bool on, std::size_t max_spans) : on_(on), max_spans_(max_spans)
    {
        if (on_) {
            spans_.reserve(max_spans_);
        }
    }

    bool on() const { return on_; }

    /// True when `n` more spans fit; callers check before recording a
    /// request so a request is either traced completely or not at all.
    bool has_room(std::size_t n) const
    {
        return on_ && spans_.size() + n <= max_spans_;
    }

    /// Records a finished span and returns its id (for children).
    std::int64_t add(const char* name, double start_us, double end_us,
                     std::int64_t parent = -1, std::int64_t request = -1)
    {
        spans_.push_back({name, start_us, end_us, parent, request});
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }

    const std::vector<span>& spans() const { return spans_; }

    /// Self time per span name, summed over all recorded instances.
    std::map<std::string, self_time> self_times() const
    {
        std::vector<std::vector<std::pair<double, double>>> kids(
            spans_.size());
        for (const span& s : spans_) {
            if (s.parent >= 0) {
                const span& p = spans_[static_cast<std::size_t>(s.parent)];
                const double lo = std::max(s.start_us, p.start_us);
                const double hi = std::min(s.end_us, p.end_us);
                if (hi > lo) {
                    kids[static_cast<std::size_t>(s.parent)].push_back(
                        {lo, hi});
                }
            }
        }
        std::map<std::string, self_time> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            auto& iv = kids[i];
            std::sort(iv.begin(), iv.end());
            double covered = 0.0;
            double cur_lo = 0.0;
            double cur_hi = -1.0;
            for (const auto& [lo, hi] : iv) {
                if (lo > cur_hi) {
                    covered += std::max(0.0, cur_hi - cur_lo);
                    cur_lo = lo;
                    cur_hi = hi;
                } else {
                    cur_hi = std::max(cur_hi, hi);
                }
            }
            covered += std::max(0.0, cur_hi - cur_lo);
            self_time& st = out[spans_[i].name];
            st.total_us += std::max(
                0.0, spans_[i].end_us - spans_[i].start_us - covered);
            ++st.count;
        }
        return out;
    }

    /// Writes all spans as Chrome trace "complete" events; returns false
    /// when the file cannot be written.
    bool write(const std::string& path) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            return false;
        }
        std::fputs("{\"traceEvents\": [\n", f);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const span& s = spans_[i];
            std::fprintf(f,
                         "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                         "\"args\": {\"id\": %zu, \"parent\": %lld, "
                         "\"request\": %lld}}\n",
                         i ? "," : "", json_string(s.name).c_str(),
                         s.start_us, s.end_us - s.start_us, i,
                         static_cast<long long>(s.parent),
                         static_cast<long long>(s.request));
        }
        std::fputs("]}\n", f);
        return std::fclose(f) == 0;
    }

private:
    bool on_;
    std::size_t max_spans_;
    std::vector<span> spans_;
};

}  // namespace perfbench
