#ifdef BATCHLIN_XPU_CHECK

#include "xpu/check.hpp"

#include <algorithm>
#include <sstream>

namespace batchlin::xpu::check {

std::string to_string(diagnostic kind)
{
    switch (kind) {
    case diagnostic::uninitialized_read: return "uninitialized_read";
    case diagnostic::out_of_bounds: return "out_of_bounds";
    case diagnostic::use_after_reset: return "use_after_reset";
    case diagnostic::phase_race: return "phase_race";
    case diagnostic::nonuniform_collective: return "nonuniform_collective";
    case diagnostic::lane_order_dependence: return "lane_order_dependence";
    }
    return "unknown";
}

namespace {

void append_lane(std::ostream& os, index_type lane)
{
    if (lane == uniform_lane) {
        os << "uniform";
    } else {
        os << lane;
    }
}

}  // namespace

std::string describe(const violation& v)
{
    std::ostringstream os;
    os << to_string(v.kind) << " in kernel '" << v.kernel << "'";
    if (v.group >= 0) {
        os << " group " << v.group;
    }
    if (v.phase >= 0) {
        os << " phase " << v.phase;
    }
    if (v.lane_a != uniform_lane || v.lane_b != uniform_lane ||
        v.kind == diagnostic::phase_race ||
        v.kind == diagnostic::nonuniform_collective) {
        os << " lanes ";
        append_lane(os, v.lane_a);
        os << "/";
        append_lane(os, v.lane_b);
    }
    if (v.byte_end > v.byte_begin) {
        os << " bytes [" << v.byte_begin << "," << v.byte_end << ")";
    }
    if (!v.detail.empty()) {
        os << ": " << v.detail;
    }
    return os.str();
}

void group_checker::begin_group(index_type group_id,
                                index_type work_group_size)
{
    group_ = group_id;
    wg_size_ = work_group_size;
    phase_ = 0;
    lane_ = uniform_lane;
    regions_.clear();
    reads_.clear();
    writes_.clear();
}

span_tag group_checker::register_slm_region(size_type bytes)
{
    region_info info;
    info.bytes = bytes;
    info.is_slm = true;
    info.shadow.assign(static_cast<std::size_t>(bytes), 0);
    regions_.push_back(std::move(info));
    return {this, static_cast<index_type>(regions_.size()) - 1, 0};
}

span_tag group_checker::register_global_region(size_type bytes)
{
    region_info info;
    info.bytes = bytes;
    info.shadow.assign(static_cast<std::size_t>(bytes), 0);
    regions_.push_back(std::move(info));
    return {this, static_cast<index_type>(regions_.size()) - 1, 0};
}

void group_checker::on_slm_reset()
{
    for (region_info& r : regions_) {
        if (r.is_slm) {
            r.dead = true;
        }
    }
}

void group_checker::on_access(index_type region, size_type offset,
                              size_type bytes, bool is_write)
{
    region_info& r = regions_[static_cast<std::size_t>(region)];
    if (r.dead) {
        throw_violation(diagnostic::use_after_reset, lane_, uniform_lane,
                        offset, offset + bytes,
                        "access through a span of an SLM allocation released "
                        "by slm_arena::reset()");
    }
    unsigned char* shadow = r.shadow.data() + offset;
    if (is_write) {
        std::fill_n(shadow, static_cast<std::size_t>(bytes),
                    static_cast<unsigned char>(1));
    } else {
        for (size_type b = 0; b < bytes; ++b) {
            if (shadow[b] == 0) {
                throw_violation(
                    diagnostic::uninitialized_read, lane_, uniform_lane,
                    offset, offset + bytes,
                    r.is_slm
                        ? "read of SLM bytes never written by this group"
                        : "read of spill-scratch bytes never written by "
                          "this group");
            }
        }
    }
    if (level_ >= check_level::hazard) {
        access_record rec{region, offset, offset + bytes, lane_};
        if (is_write) {
            writes_.push_back(rec);
        } else {
            reads_.push_back(rec);
        }
    }
}

void group_checker::fail_out_of_bounds(index_type region,
                                       size_type span_offset, index_type i,
                                       index_type len, size_type elem_bytes)
{
    const size_type begin =
        span_offset + static_cast<size_type>(i) * elem_bytes;
    throw_violation(diagnostic::out_of_bounds, lane_, uniform_lane, begin,
                    begin + elem_bytes,
                    "index " + std::to_string(i) + " outside span of length " +
                        std::to_string(len) + " (allocation #" +
                        std::to_string(region) + ")");
}

void group_checker::require_uniform(const char* what)
{
    if (lane_ != uniform_lane) {
        throw_violation(diagnostic::nonuniform_collective, lane_,
                        uniform_lane, 0, 0,
                        std::string(what) +
                            " invoked from inside a per-lane region; "
                            "barriers and collectives must be invoked "
                            "uniformly by the whole work-group");
    }
}

void group_checker::throw_violation(diagnostic kind, index_type lane_a,
                                    index_type lane_b, size_type byte_begin,
                                    size_type byte_end,
                                    std::string detail) const
{
    violation v;
    v.kind = kind;
    v.kernel = kernel_;
    v.group = group_;
    v.phase = phase_;
    v.lane_a = lane_a;
    v.lane_b = lane_b;
    v.byte_begin = byte_begin;
    v.byte_end = byte_end;
    v.detail = std::move(detail);
    throw check_violation(std::move(v));
}

void group_checker::finish_phase()
{
    if (level_ >= check_level::hazard && !writes_.empty()) {
        scan_conflicts();
    }
    reads_.clear();
    writes_.clear();
    ++phase_;
}

void group_checker::scan_conflicts()
{
    std::sort(writes_.begin(), writes_.end(),
              [](const access_record& a, const access_record& b) {
                  return a.region != b.region ? a.region < b.region
                                              : a.begin < b.begin;
              });
    // Write-write: sweep against the max-end record of the sorted prefix.
    // If any conflicting pair exists, at least one is caught (the sweep is
    // complete for first-failure reporting), and we fail fast anyway.
    const access_record* open = nullptr;
    for (const access_record& w : writes_) {
        if (open != nullptr && open->region == w.region &&
            w.begin < open->end) {
            if (open->lane != w.lane) {
                throw_violation(
                    diagnostic::phase_race, open->lane, w.lane, w.begin,
                    std::min(open->end, w.end),
                    "cross-lane write-write overlap within one barrier "
                    "phase");
            }
            if (w.end > open->end) {
                open = &w;
            }
        } else {
            open = &w;
        }
    }
    // Read-write: every read against the writes of its region. Writes are
    // sorted by begin, so the scan stops at the first write past the read.
    for (const access_record& r : reads_) {
        auto lo = std::lower_bound(
            writes_.begin(), writes_.end(), r.region,
            [](const access_record& w, index_type region) {
                return w.region < region;
            });
        for (auto it = lo;
             it != writes_.end() && it->region == r.region &&
             it->begin < r.end;
             ++it) {
            if (it->end > r.begin && it->lane != r.lane) {
                throw_violation(diagnostic::phase_race, r.lane, it->lane,
                                std::max(r.begin, it->begin),
                                std::min(r.end, it->end),
                                "cross-lane read-write overlap within one "
                                "barrier phase");
            }
        }
    }
}

void group_checker::prepare_lane_order(index_type work_group_size)
{
    lane_order_buf_.resize(static_cast<std::size_t>(work_group_size));
    for (index_type k = 0; k < work_group_size; ++k) {
        lane_order_buf_[static_cast<std::size_t>(k)] = k;
    }
    if (level_ < check_level::adversary) {
        return;
    }
    switch (order_) {
    case lane_order::ascending:
        break;
    case lane_order::reversed:
        std::reverse(lane_order_buf_.begin(), lane_order_buf_.end());
        break;
    case lane_order::shuffled: {
        // splitmix64 keyed by (seed, group, phase): every phase of every
        // group draws a distinct permutation, reproducibly.
        std::uint64_t state = (static_cast<std::uint64_t>(seed_) << 32) ^
                              (static_cast<std::uint64_t>(
                                   static_cast<std::uint32_t>(group_))
                               << 16) ^
                              static_cast<std::uint64_t>(
                                  static_cast<std::uint32_t>(phase_));
        auto next = [&state]() {
            state += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = state;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            return z ^ (z >> 31);
        };
        for (index_type k = work_group_size - 1; k > 0; --k) {
            const index_type j = static_cast<index_type>(
                next() % static_cast<std::uint64_t>(k + 1));
            std::swap(lane_order_buf_[static_cast<std::size_t>(k)],
                      lane_order_buf_[static_cast<std::size_t>(j)]);
        }
        break;
    }
    }
}

}  // namespace batchlin::xpu::check

#else

// Checked mode compiled out: keep the translation unit non-empty.
namespace batchlin::xpu::check {
void unused_in_unchecked_builds() {}
}  // namespace batchlin::xpu::check

#endif  // BATCHLIN_XPU_CHECK
