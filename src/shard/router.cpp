#include "shard/router.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace batchlin::shard {

namespace {

/// Nominal Krylov sweeps the cost estimate charges: the routing-relevant
/// quantity is relative cost across shards and request shapes, which a
/// fixed sweep count preserves.
constexpr double kNominalSweeps = 16.0;

/// splitmix64 finalizer: decorrelates the coalesce key per shard so the
/// rendezvous draws are independent.
std::uint64_t mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Uniform draw in (0, 1], never zero (log of it must be finite).
double hash01(std::uint64_t key, std::uint64_t shard)
{
    const std::uint64_t h = mix64(key ^ mix64(shard + 1));
    return (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;
}

}  // namespace

router::router(std::vector<perf::device_spec> specs)
    : specs_(std::move(specs))
{
    BATCHLIN_ENSURE_MSG(!specs_.empty(),
                        "router needs at least one shard spec");
}

std::int64_t router::estimate_cost_ns(const perf::device_spec& spec,
                                      index_type items, index_type rows,
                                      index_type nnz_per_item)
{
    // Per sweep and system: the matrix (values + column indices, 12 B per
    // stored element) plus about six row-length vector traversals of the
    // Krylov work set (8 B each).
    const double bytes = static_cast<double>(items) *
                         (static_cast<double>(nnz_per_item) * 12.0 +
                          static_cast<double>(rows) * 6.0 * 8.0) *
                         kNominalSweeps;
    const double bw_bytes_per_sec = perf::sustained_bw_tbs(spec) * 1e12;
    double launch_us = spec.kernel_launch_us;
    if (spec.num_stacks > 1) {
        launch_us += spec.implicit_scaling_overhead_us;
    }
    const double ns =
        launch_us * 1e3 +
        (bw_bytes_per_sec > 0.0 ? bytes / bw_bytes_per_sec * 1e9 : 0.0);
    return std::max<std::int64_t>(1, std::llround(ns));
}

index_type router::route(std::uint64_t key, index_type rows,
                         index_type nnz_per_item,
                         const std::vector<char>* alive) const
{
    const std::size_t n = specs_.size();
    BATCHLIN_ENSURE_MSG(n > 0, "route on an empty router");
    if (n == 1) {
        return 0;
    }
    if (alive != nullptr) {
        BATCHLIN_ENSURE_DIMS(alive->size() == n,
                             "alive mask must cover every shard");
        const bool any_alive =
            std::any_of(alive->begin(), alive->end(),
                        [](char a) { return a != 0; });
        if (!any_alive) {
            alive = nullptr;
        }
    }

    // Weighted rendezvous: score = -ln(u) * cost of one system (the
    // cheaper the shard, the smaller its typical score); the minimum
    // wins. Deterministic in (key, shape, specs, mask).
    std::size_t affine = n;
    double best = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (alive != nullptr && (*alive)[i] == 0) {
            continue;
        }
        const double score =
            -std::log(hash01(key, i)) *
            static_cast<double>(
                estimate_cost_ns(specs_[i], 1, rows, nnz_per_item));
        if (affine == n || score < best) {
            best = score;
            affine = i;
        }
    }
    return static_cast<index_type>(affine);
}

}  // namespace batchlin::shard
