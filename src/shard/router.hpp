// shard::router — cost-model placement of coalesced batches.
//
// Placement has two competing goals. Requests sharing a coalesce key must
// land on the *same* shard, or sharding silently destroys the batching
// the serve layer exists for; and shards must stay *balanced*, or one hot
// key serializes the fleet on a single device. The router resolves this
// with a three-level policy:
//
//  1. Affinity: weighted rendezvous hashing on the coalesce key, weighted
//     by the inverse of the perfmodel cost estimate, so equal keys are
//     routed identically (deterministic, the satellite requirement) and
//     faster devices win proportionally more keys.
//  2. Spill: when the affine shard's estimated backlog exceeds the least
//     loaded shard's by more than a full batch worth of this request's
//     cost, the request spills to the least loaded shard — cost model vs.
//     per-shard queue depth, with enough hysteresis that small same-key
//     bursts stay together and keep fusing.
//  3. Stealing (implemented in the serve lanes, thresholds here): an idle
//     shard pulls from the deepest ring once it holds more than a
//     full batch, so routing mistakes and load skew self-correct.
//
// Costs are int64 nanoseconds: the modeled solve of a handful of 8-row
// systems is well under a microsecond of bandwidth time, so a coarser
// unit would round every small request to the same cost and the weights
// would stop discriminating.
#pragma once

#include <cstdint>
#include <vector>

#include "perfmodel/device_spec.hpp"
#include "util/math.hpp"

namespace batchlin::shard {

/// Routing verdict: the target shard and the request's estimated cost on
/// it (the unit the lane backlog accounting runs in).
struct decision {
    index_type shard = 0;
    std::int64_t cost_ns = 0;
};

class router {
public:
    router() = default;

    explicit router(std::vector<perf::device_spec> specs);

    index_type size() const
    {
        return static_cast<index_type>(specs_.size());
    }

    /// Modeled wall cost of solving `items` systems of `rows` rows with
    /// `nnz_per_item` stored nonzeros on `spec`, in nanoseconds: one
    /// kernel launch (plus the implicit-scaling split overhead on
    /// multi-stack parts) plus the streamed bytes of a nominal iteration
    /// count over the device's sustained bandwidth. Routing needs a
    /// size- and device-proportional estimate, not a converged iteration
    /// count, so the sweep count is a fixed constant.
    static std::int64_t estimate_cost_ns(const perf::device_spec& spec,
                                         index_type items, index_type rows,
                                         index_type nnz_per_item);

    /// Routes one request. `backlog_ns` is the per-shard estimated
    /// not-yet-completed work (same unit as `estimate_cost_ns`); it may
    /// be read racily — staleness degrades balance, never correctness.
    decision route(std::uint64_t key, index_type items, index_type rows,
                   index_type nnz_per_item,
                   const std::vector<std::int64_t>& backlog_ns) const;

    /// Failover-aware routing: shards whose `alive` byte is zero are
    /// skipped in both the rendezvous draw and the spill scan, so an
    /// evicted lane keeps zero weight until its half-open probe restores
    /// it. A null or all-dead mask degrades to the unmasked policy (the
    /// caller has nowhere better to send the work anyway). The rendezvous
    /// draw for a given (key, shard) pair is unchanged by the mask, so
    /// keys return to their affine shard the moment it revives.
    decision route(std::uint64_t key, index_type items, index_type rows,
                   index_type nnz_per_item,
                   const std::vector<std::int64_t>& backlog_ns,
                   const std::vector<char>* alive) const;

private:
    std::vector<perf::device_spec> specs_;
};

}  // namespace batchlin::shard
