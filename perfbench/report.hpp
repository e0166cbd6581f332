// Metric sink and order statistics of the perfbench binary.
//
// Every number perfbench reports goes through `report::add`, which
// enforces the metric-name grammar ([A-Za-z0-9_.-]+), rejects duplicate
// names and non-finite values, and keeps insertion order so the JSON and
// the human-readable table list metrics in the order they were measured.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

inline bool valid_metric_name(const std::string& name)
{
    if (name.empty()) {
        return false;
    }
    return std::all_of(name.begin(), name.end(), [](char c) {
        return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
               (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    });
}

/// Writes `s` as a JSON string literal (perfbench only emits ASCII).
inline std::string json_string(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/// Full-precision JSON number (17 significant digits round-trips a double).
inline std::string json_number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Fixed-memory latency histogram: log buckets 0.05% wide from 1 ns to
/// ~1000 s (values in microseconds). Recording is O(1) and allocates
/// nothing, so the benchmark's own bookkeeping does not grow with the
/// throughput it measures (peak_rss_mb stays the library's figure).
class histogram {
public:
    void add(double us)
    {
        std::size_t i = 0;
        if (us > kMinUs) {
            i = std::min(kBuckets - 1,
                         static_cast<std::size_t>(std::log(us / kMinUs) /
                                                  kLogRatio));
        }
        ++counts_[i];
        ++n_;
    }

    std::uint64_t count() const { return n_; }

    /// Nearest-rank quantile, reported at the bucket's geometric centre;
    /// 0 for an empty histogram.
    double quantile(double q) const
    {
        if (n_ == 0) {
            return 0.0;
        }
        const auto rank = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::ceil(q * static_cast<double>(n_))));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            seen += counts_[i];
            if (seen >= rank) {
                return kMinUs * std::exp((static_cast<double>(i) + 0.5) *
                                         kLogRatio);
            }
        }
        return 0.0;
    }

private:
    static constexpr double kMinUs = 1e-3;
    static constexpr double kLogRatio = 0.0005;  // ln(1.0005), rounded
    static constexpr std::size_t kBuckets = 56'000;
    std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
    std::uint64_t n_ = 0;
};

struct metric {
    std::string name;
    std::string unit;
    double value = 0.0;
};

class report {
public:
    void add(const std::string& name, const std::string& unit, double value)
    {
        if (!valid_metric_name(name)) {
            throw std::runtime_error("invalid metric name: " + name);
        }
        if (!std::isfinite(value)) {
            throw std::runtime_error("non-finite value for metric " + name);
        }
        for (const metric& m : metrics_) {
            if (m.name == name) {
                throw std::runtime_error("duplicate metric: " + name);
            }
        }
        metrics_.push_back({name, unit, value});
    }

    /// {"name": {"value": v, "unit": "u"}, ...}
    std::string to_json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const metric& m = metrics_[i];
            out += (i ? ", " : "") + json_string(m.name) +
                   ": {\"value\": " + json_number(m.value) +
                   ", \"unit\": " + json_string(m.unit) + "}";
        }
        return out + "}";
    }

private:
    std::vector<metric> metrics_;
};

}  // namespace perfbench
