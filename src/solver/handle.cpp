#include "solver/handle.hpp"

#include "solver/launch.hpp"

namespace batchlin {

namespace {

/// Read-only bytes one system contributes: matrix values plus rhs (the
/// operands the paper observes being served from L3, §4.4). The value
/// bytes come from the matrix's own storage accounting, so fp32-storage
/// batches report the halved footprint they actually stream — this is
/// what keeps the roofline honest under mixed precision.
template <typename T>
size_type constant_bytes_per_system(const solver::batch_matrix<T>& a)
{
    return solver::values_of(a).value_bytes_per_item() +
           static_cast<size_type>(solver::rows_of(a)) *
               static_cast<size_type>(sizeof(T));
}

}  // namespace

template <typename T>
perf::solve_profile make_profile(const solver::solve_result& result,
                                 const solver::batch_matrix<T>& a,
                                 index_type target_items)
{
    const index_type measured = solver::items_of(a);
    const index_type rows = solver::rows_of(a);
    BATCHLIN_ENSURE_MSG(measured > 0, "empty measurement batch");
    BATCHLIN_ENSURE_MSG(target_items > 0, "empty target batch");

    perf::solve_profile profile;
    const double factor =
        static_cast<double>(target_items) / static_cast<double>(measured);
    profile.totals = perf::scale_counters(result.stats, factor);
    profile.num_systems = target_items;
    profile.work_group_size = result.config.work_group_size;
    profile.thread_utilization =
        solver::thread_utilization(result.config, rows);
    profile.constant_footprint_per_system = constant_bytes_per_system(a);
    profile.fp64 = std::is_same_v<T, double>;
    return profile;
}

template perf::solve_profile make_profile<float>(
    const solver::solve_result&, const solver::batch_matrix<float>&,
    index_type);
template perf::solve_profile make_profile<double>(
    const solver::solve_result&, const solver::batch_matrix<double>&,
    index_type);

}  // namespace batchlin
