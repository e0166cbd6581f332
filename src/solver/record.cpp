#include "solver/record.hpp"

#include <algorithm>

#include "solver/ladder.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace batchlin::solver {

template <typename T>
recorded_solve<T>::recorded_solve(detail::assembly<T> ops,
                                  const solve_options& opts, slm_plan plan,
                                  kernel_config config)
    : ops_(std::move(ops)),
      opts_(opts),
      plan_(std::move(plan)),
      slots_(plan_),
      config_(config),
      total_items_(ops_.b.num_batch_items()),
      spill_(static_cast<std::size_t>(plan_.global_elems_per_group) *
             static_cast<std::size_t>(total_items_)),
      log_(total_items_)
{}

template <typename T>
std::unique_ptr<recorded_solve<T>> recorded_solve<T>::record(
    xpu::queue& q, const std::vector<assembly_part<T>>& parts,
    const solve_options& opts)
{
    opts.criterion.validate();
    BATCHLIN_ENSURE_MSG(!opts.record_history,
                        "per-iteration history is not supported for "
                        "recorded solves");
    BATCHLIN_ENSURE_MSG(opts.solver != solver_type::trsv,
                        "BatchTrsv cannot be graph-recorded; use the "
                        "direct launch path");
    const index_type total_items = detail::validate_assembly(parts);

    // The same launch resolution as the eager solve_range, so a replay is
    // bit-identical to the eager solve of the same batch. An fp32 request
    // on native parts compresses the owned gathered copy in place — it is
    // owned, so no per-replay conversion cost exists.
    detail::assembly<T> ops = detail::gather(parts, total_items);
    const mat::storage_precision request_storage = storage_of(ops.a);
    detail::launch_setup setup = detail::resolve_launch(q.policy(), ops.a,
                                                        opts);
    if (setup.compressed) {
        set_storage(ops.a, mat::storage_precision::fp32);
    }
    std::unique_ptr<recorded_solve> rs(new recorded_solve(
        std::move(ops), opts, std::move(setup.plan), setup.config));
    rs->request_storage_ = request_storage;

    xpu::command_graph recorder;
    recorder.begin_recording(q);
    try {
        rs->precond_ = detail::launch_bound(
            q, rs->ops_.a, rs->ops_.b, rs->ops_.x, opts, rs->slots_,
            rs->config_,
            spill_view<T>{rs->spill_.data(), rs->plan_.global_elems_per_group},
            rs->log_, {0, total_items});
        recorder.end_recording();
    } catch (...) {
        if (recorder.recording()) {
            recorder.end_recording();
        }
        throw;
    }
    rs->exec_ = recorder.finalize();
    return rs;
}

template <typename T>
bool recorded_solve<T>::compatible(
    const std::vector<assembly_part<T>>& parts,
    const solve_options& opts) const
{
    if (!exec_.valid() || !(opts == opts_) || parts.empty()) {
        return false;
    }
    index_type items = 0;
    for (const assembly_part<T>& part : parts) {
        if (part.a == nullptr || part.b == nullptr || part.x == nullptr) {
            return false;
        }
        items += part.items();
    }
    if (items != total_items_) {
        return false;
    }
    // The caller's batcher guarantees the parts are mutually coalescible;
    // checking the leader against the recorded pattern covers the batch.
    // Storage compares against the *request-side* mode — ops_.a itself may
    // be compressed beyond what the requests carry (opts-driven).
    return storage_of(*parts.front().a) == request_storage_ &&
           same_shape(ops_.a, *parts.front().a);
}

template <typename T>
void recorded_solve<T>::rebind(const std::vector<assembly_part<T>>& parts)
{
    // Native requests under a compressed recording narrow on copy (the
    // opts-driven compression the record path applied).
    detail::gather_into(parts, ops_);
    ++rebinds_;
}

template <typename T>
double recorded_solve<T>::replay(xpu::queue& q, xpu::submit_cost cost)
{
    if (plan_.zero_spill && !spill_.empty()) {
        // Match the eager path's per-launch zero fill bit-for-bit.
        std::fill(spill_.begin(), spill_.end(), T{});
    }
    wall_timer timer;
    exec_.replay(q, cost);
    return timer.seconds();
}

template <typename T>
void recorded_solve<T>::scatter(
    const std::vector<assembly_part<T>>& parts) const
{
    detail::scatter(ops_.x, parts);
}

template class recorded_solve<float>;
template class recorded_solve<double>;

}  // namespace batchlin::solver
