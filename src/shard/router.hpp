// shard::router — cost-model placement of coalesced batches.
//
// Placement has one job: requests sharing a coalesce key must land on
// the *same* shard, or sharding silently destroys the batching the serve
// layer exists for (the paper's throughput comes from fusing many small
// systems into one launch, §3.4). Balance comes from the workers, not
// from the router. Placement is two levels:
//
//  1. Affinity: weighted rendezvous hashing on the coalesce key, weighted
//     by the inverse of the perfmodel cost of one system of the key's
//     shape, so equal keys are routed identically whatever their item
//     counts and faster devices win proportionally more keys.
//  2. Stealing (implemented in the serve lanes): an idle shard pulls from
//     the deepest other ring once it holds more than `max_batch` systems
//     — a rule, not a setting — so a hot key or a skewed key mix
//     self-corrects, and the stolen chunk still fuses on the thief.
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

    /// The shard of coalesce key `key` whose systems have `rows` rows and
    /// `nnz_per_item` stored nonzeros. Reads neither load nor item count,
    /// so every request of a key gets the same answer. Shards whose
    /// `alive` byte is zero are skipped, so an evicted lane keeps zero
    /// weight until its half-open probe restores it. A null or all-dead
    /// mask degrades to the unmasked draw (the caller has nowhere better
    /// to send the work anyway). The draw for a given (key, shard) pair
    /// is unchanged by the mask, so keys return to their affine shard the
    /// moment it revives.
    index_type route(std::uint64_t key, index_type rows,
                     index_type nnz_per_item,
                     const std::vector<char>* alive = nullptr) const;

private:
    std::vector<perf::device_spec> specs_;
};

}  // namespace batchlin::shard
