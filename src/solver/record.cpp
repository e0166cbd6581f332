#include "solver/record.hpp"

#include <algorithm>
#include <bit>

#include "solver/ladder.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"
#include "xpu/fault.hpp"
#include "xpu/graph.hpp"

namespace batchlin::solver {

/// Records the coalesced solve of `capacity` systems, the first of them
/// gathered from `parts`, into a finalized graph on `q`. Nothing executes
/// until the first replay. The recorded closure points into the owned
/// operands, spill and log, so the object lives behind a unique_ptr and
/// none of them moves or reallocates after construction.
template <typename T>
class recorded_solve {
public:
    recorded_solve(xpu::queue& q, const std::vector<assembly_part<T>>& parts,
                   index_type capacity, const solve_options& options)
        : ops(detail::gather(parts, capacity)),
          request_storage(storage_of(ops.a)),
          // The same launch resolution as the eager solve_range, so a
          // replay is bit-identical to the eager solve of the same batch.
          setup(detail::resolve_launch(q.policy(), ops.a, options)),
          slots(setup.plan),
          spill(static_cast<std::size_t>(setup.plan.global_elems_per_group) *
                static_cast<std::size_t>(capacity)),
          log(capacity),
          opts(options)
    {
        options.criterion.validate();
        // An fp32 request on native parts compresses the owned gathered
        // copy in place — it is owned, so no per-replay conversion cost
        // exists.
        if (setup.compressed) {
            set_storage(ops.a, mat::storage_precision::fp32);
        }
        // A throwing launch leaves the recorder to detach from `q`.
        xpu::command_graph recorder;
        recorder.begin_recording(q);
        precond = detail::launch_bound(
            q, ops.a, ops.b, ops.x, opts, slots, setup.config,
            spill_view<T>{spill.data(), setup.plan.global_elems_per_group},
            log, {0, capacity});
        recorder.end_recording();
        exec = recorder.finalize();
    }

    // The recorded closure holds addresses of the members.
    recorded_solve(const recorded_solve&) = delete;
    recorded_solve& operator=(const recorded_solve&) = delete;

    /// Whether a batch of `items` systems led by `leader` may rebind this
    /// recording under `options`: any batch of the recorded shape that is
    /// no larger than the capacity. The parts of a batch are mutually
    /// coalescible (`validate_assembly`), so the leader covers the batch.
    /// Storage compares against the request-side mode: `ops.a` itself may
    /// be compressed beyond what the requests carry.
    bool fits(const batch_matrix<T>& leader, index_type items,
              const solve_options& options) const
    {
        return exec.valid() && options == opts &&
               items <= log.num_systems() &&
               storage_of(leader) == request_storage &&
               same_shape(ops.a, leader);
    }

    detail::assembly<T> ops;
    mat::storage_precision request_storage;
    detail::launch_setup setup;
    bound_plan slots;
    std::vector<T> spill;
    log::batch_log log;
    solve_options opts;
    /// Type-erased owned preconditioner (points into ops.a for the
    /// pattern-dependent ones).
    std::shared_ptr<void> precond;
    xpu::graph_exec exec;
};

template <typename T>
recording_cache<T>::recording_cache(std::size_t capacity)
    : capacity_(capacity)
{
    BATCHLIN_ENSURE_MSG(capacity > 0,
                        "a recording cache needs at least one slot");
}

template <typename T>
recording_cache<T>::~recording_cache() = default;

template <typename T>
solve_result recording_cache<T>::solve(
    xpu::queue& q, const std::vector<assembly_part<T>>& parts,
    const solve_options& opts)
{
    const index_type items = detail::validate_assembly(parts);
    const batch_matrix<T>& leader = *parts.front().a;
    const std::uint64_t key = coalesce_key(leader, opts);
    auto hit = std::find_if(slots_.begin(), slots_.end(),
                            [&](const slot& s) { return s.key == key; });
    if (hit != slots_.end() && hit->rec->fits(leader, items, opts)) {
        // Native requests under a compressed recording narrow on copy.
        detail::gather_into(parts, hit->rec->ops);
    } else {
        // Record first, then pick the slot: a throwing record leaves the
        // cache unchanged. A key re-records in its own slot (outgrown, or
        // invalidated by a fault its retry now recovers); a new key takes
        // a free slot or the least recently used one.
        auto rec = std::make_unique<recorded_solve<T>>(
            q, parts,
            static_cast<index_type>(
                std::bit_ceil(static_cast<std::uint32_t>(items))),
            opts);
        ++totals_.recorded;
        if (hit == slots_.end()) {
            hit = slots_.size() < capacity_
                      ? slots_.emplace(slots_.end())
                      : std::min_element(
                            slots_.begin(), slots_.end(),
                            [](const slot& lhs, const slot& rhs) {
                                return lhs.last_use < rhs.last_use;
                            });
        }
        hit->key = key;
        hit->rec = std::move(rec);
    }
    hit->last_use = ++tick_;
    recorded_solve<T>& rec = *hit->rec;
    ++totals_.replayed;
    solve_result result;
    wall_timer timer;
    try {
        rec.exec.replay(q, items);
    } catch (const xpu::device_error&) {
        // Never replay a poisoned graph: drop the recording so the retry
        // re-records from scratch.
        rec.exec.invalidate();
        throw;
    }
    result.wall_seconds = timer.seconds();
    detail::scatter(rec.ops.x, parts);
    result.log = split_log(rec.log, 0, items);
    result.stats = q.last_launch_stats();
    result.plan = rec.setup.plan;
    result.config = rec.setup.config;
    return result;
}

template class recording_cache<float>;
template class recording_cache<double>;

}  // namespace batchlin::solver
