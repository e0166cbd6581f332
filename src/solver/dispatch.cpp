#include "solver/dispatch.hpp"

#include "solver/instantiate.hpp"
#include "solver/ladder.hpp"
#include "solver/run_decl.hpp"
#include "solver/trsv.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace batchlin::solver {

// The kernels are explicitly instantiated in the per-solver translation
// units (including the double-over-fp32 mixed TUs); declare those
// instantiations so this file stays cheap to compile.
#define BATCHLIN_EXTERN_CG_BOUND(T, S, MatBatch, ...) \
    extern BATCHLIN_INSTANTIATE_CG_BOUND(T, S, MatBatch, __VA_ARGS__)
#define BATCHLIN_EXTERN_BICGSTAB_BOUND(T, S, MatBatch, ...) \
    extern BATCHLIN_INSTANTIATE_BICGSTAB_BOUND(T, S, MatBatch, __VA_ARGS__)
#define BATCHLIN_EXTERN_GMRES_BOUND(T, S, MatBatch, ...) \
    extern BATCHLIN_INSTANTIATE_GMRES_BOUND(T, S, MatBatch, __VA_ARGS__)
#define BATCHLIN_EXTERN_RICHARDSON_BOUND(T, S, MatBatch, ...) \
    extern BATCHLIN_INSTANTIATE_RICHARDSON_BOUND(T, S, MatBatch, __VA_ARGS__)

BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_CG_BOUND, float, float)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_CG_BOUND, double, double)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_CG_BOUND, double, float)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_BICGSTAB_BOUND, float, float)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_BICGSTAB_BOUND, double, double)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_BICGSTAB_BOUND, double, float)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_GMRES_BOUND, float, float)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_GMRES_BOUND, double, double)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_GMRES_BOUND, double, float)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_RICHARDSON_BOUND, float, float)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_RICHARDSON_BOUND, double, double)
BATCHLIN_FOR_EACH_COMBO(BATCHLIN_EXTERN_RICHARDSON_BOUND, double, float)

std::string to_string(matrix_format f)
{
    switch (f) {
    case matrix_format::dense:
        return "BatchDense";
    case matrix_format::csr:
        return "BatchCsr";
    case matrix_format::ell:
        return "BatchEll";
    }
    return "?";
}

namespace {

template <typename T, typename S>
size_type precond_workspace(precond::type p, index_type rows,
                            index_type nnz, index_type block_size)
{
    switch (p) {
    case precond::type::none:
        return precond::identity<T, S>::workspace_elems(rows, nnz);
    case precond::type::jacobi:
        return precond::jacobi<T, S>::workspace_elems(rows, nnz);
    case precond::type::ilu:
        return precond::ilu0<T, S>::workspace_elems(rows, nnz);
    case precond::type::isai:
        return precond::isai<T, S>::workspace_elems(rows, nnz);
    case precond::type::block_jacobi:
        return precond::block_jacobi<T, S>::workspace_elems(rows, nnz,
                                                            block_size);
    }
    return 0;
}

/// Operands of one bound launch, shared by every rung of the ladder.
template <typename T>
struct launch_operands {
    const mat::batch_dense<T>& b;
    mat::batch_dense<T>& x;
    const solve_options& opts;
    const bound_plan& slots;
    const kernel_config& config;
    spill_view<T> spill;
    log::batch_log& logger;
    xpu::batch_range range;
};

/// Level 3 of the dispatch: the solver axis, with format, storage and
/// preconditioner already resolved to concrete types.
template <typename T, typename S, typename MatBatch, typename Precond>
std::shared_ptr<void> launch_solver(xpu::queue& q, const MatBatch& a,
                                    std::shared_ptr<Precond> pc,
                                    const launch_operands<T>& ops)
{
    const solve_options& opts = ops.opts;
    switch (opts.solver) {
    case solver_type::cg:
        run_cg_bound<T, MatBatch, Precond, S>(
            q, a, *pc, ops.b, ops.x, opts.criterion, ops.slots, ops.config,
            ops.spill, ops.logger, ops.range);
        break;
    case solver_type::bicgstab:
        run_bicgstab_bound<T, MatBatch, Precond, S>(
            q, a, *pc, ops.b, ops.x, opts.criterion, ops.slots, ops.config,
            ops.spill, ops.logger, ops.range);
        break;
    case solver_type::gmres:
        run_gmres_bound<T, MatBatch, Precond, S>(
            q, a, *pc, ops.b, ops.x, opts.criterion, ops.slots, ops.config,
            ops.spill, opts.gmres_restart, ops.logger, ops.range);
        break;
    case solver_type::richardson:
        run_richardson_bound<T, MatBatch, Precond, S>(
            q, a, *pc, ops.b, ops.x, opts.criterion, ops.slots, ops.config,
            ops.spill, static_cast<T>(opts.richardson_relaxation),
            ops.logger, ops.range);
        break;
    case solver_type::trsv:
        BATCHLIN_UNSUPPORTED("BatchTrsv is dispatched separately");
    }
    return pc;
}

/// Level 2 of the dispatch: the preconditioner axis, constructed from the
/// launch's own matrix. The `if constexpr` guards keep illegal
/// combinations (Table 3) from ever instantiating.
template <typename T, typename S, typename MatBatch>
std::shared_ptr<void> launch_precond(xpu::queue& q, const MatBatch& a,
                                     const launch_operands<T>& ops)
{
    constexpr bool is_csr = std::is_same_v<MatBatch, mat::batch_csr<T>>;
    switch (ops.opts.preconditioner) {
    case precond::type::none:
        return launch_solver<T, S>(
            q, a, std::make_shared<precond::identity<T, S>>(), ops);
    case precond::type::jacobi:
        if constexpr (is_csr) {
            return launch_solver<T, S>(
                q, a, std::make_shared<precond::jacobi<T, S>>(a), ops);
        } else {
            return launch_solver<T, S>(
                q, a, std::make_shared<precond::jacobi<T, S>>(), ops);
        }
    case precond::type::ilu:
        if constexpr (is_csr) {
            return launch_solver<T, S>(
                q, a, std::make_shared<precond::ilu0<T, S>>(a), ops);
        }
        BATCHLIN_UNSUPPORTED("BatchIlu requires the BatchCsr format");
    case precond::type::isai:
        if constexpr (is_csr) {
            return launch_solver<T, S>(
                q, a, std::make_shared<precond::isai<T, S>>(a), ops);
        }
        BATCHLIN_UNSUPPORTED("BatchIsai requires the BatchCsr format");
    case precond::type::block_jacobi:
        if constexpr (is_csr) {
            return launch_solver<T, S>(
                q, a,
                std::make_shared<precond::block_jacobi<T, S>>(
                    a, ops.opts.block_jacobi_size),
                ops);
        }
        BATCHLIN_UNSUPPORTED(
            "BatchBlockJacobi requires the BatchCsr format");
    }
    return nullptr;
}

}  // namespace

namespace detail {

template <typename T>
launch_setup resolve_launch(const xpu::exec_policy& policy,
                            const batch_matrix<T>& a,
                            const solve_options& opts)
{
    const index_type rows = rows_of(a);
    const auto nnz =
        static_cast<index_type>(values_of(a).values_per_item());
    launch_setup setup;
    const xpu::reduce_path* reduction_override =
        opts.reduction ? &*opts.reduction : nullptr;
    setup.config = choose_launch_config(policy, rows, opts.sub_group_size,
                                        reduction_override);
    // Storage axis: a matrix already compressed to fp32 is honored as
    // stored (its native bits are gone); otherwise the options decide.
    setup.compressed =
        storage_of(a) == mat::storage_precision::fp32 ||
        mat::effective_storage<T>(opts.storage) ==
            mat::storage_precision::fp32;
    // fp32 payloads pack into half the workspace slots, so the planner
    // sees the smaller footprint and fits more preconditioners into SLM.
    const size_type pc_elems =
        setup.compressed
            ? precond_workspace<T, float>(opts.preconditioner, rows, nnz,
                                          opts.block_jacobi_size)
            : precond_workspace<T, T>(opts.preconditioner, rows, nnz,
                                      opts.block_jacobi_size);
    setup.plan = plan_workspace(opts.solver, rows, nnz, pc_elems,
                                policy.slm_bytes_per_group, sizeof(T),
                                opts.gmres_restart, opts.slm);
    return setup;
}

template <typename T>
std::shared_ptr<void> launch_bound(xpu::queue& q, const batch_matrix<T>& a,
                                   const mat::batch_dense<T>& b,
                                   mat::batch_dense<T>& x,
                                   const solve_options& opts,
                                   const bound_plan& slots,
                                   const kernel_config& config,
                                   spill_view<T> spill,
                                   log::batch_log& logger,
                                   xpu::batch_range range)
{
    const launch_operands<T> ops{b,      x,      opts,  slots,
                                 config, spill, logger, range};
    // Level 1 of the dispatch: the format axis, plus the storage width
    // the matrix holds.
    return std::visit(
        [&](const auto& concrete) {
            return concrete.visit_storage_type([&](auto storage) {
                using S = typename decltype(storage)::type;
                return launch_precond<T, S>(q, concrete, ops);
            });
        },
        a);
}

}  // namespace detail

template <typename T>
solve_result solve_range(xpu::queue& q, const batch_matrix<T>& a,
                         const mat::batch_dense<T>& b,
                         mat::batch_dense<T>& x, const solve_options& opts,
                         xpu::batch_range range)
{
    opts.criterion.validate();
    const index_type items = items_of(a);
    const index_type rows = rows_of(a);
    BATCHLIN_ENSURE_DIMS(b.num_batch_items() == items &&
                             x.num_batch_items() == items,
                         "batch sizes of A, b, x must match");
    BATCHLIN_ENSURE_DIMS(b.rows() == rows && x.rows() == rows,
                         "vector lengths must match the matrix order");
    BATCHLIN_ENSURE_DIMS(b.cols() == 1 && x.cols() == 1,
                         "batched solve expects single right-hand sides");
    BATCHLIN_ENSURE_DIMS(range.begin >= 0 && range.end <= items &&
                             range.begin <= range.end,
                         "batch range out of bounds");

    solve_result result;
    result.log = log::batch_log(items);
    if (opts.record_history) {
        result.log.enable_history(opts.criterion.max_iterations);
    }
    detail::launch_setup setup = detail::resolve_launch(q.policy(), a, opts);
    result.plan = std::move(setup.plan);
    result.config = setup.config;
    const bool native = storage_of(a) == mat::storage_precision::native;

    wall_timer timer;
    if (opts.solver == solver_type::trsv) {
        BATCHLIN_ENSURE_MSG(
            std::holds_alternative<mat::batch_csr<T>>(a),
            "BatchTrsv requires the BatchCsr format");
        BATCHLIN_ENSURE_MSG(opts.preconditioner == precond::type::none,
                            "BatchTrsv is a direct solve and takes no "
                            "preconditioner");
        // The triangular direct solve has no refinement loop to recover
        // narrowed bits, so it only accepts native storage.
        BATCHLIN_ENSURE_MSG(native, "BatchTrsv requires native storage");
        run_trsv<T>(q, std::get<mat::batch_csr<T>>(a), b, x,
                    opts.trsv_triangle, result.plan, result.config,
                    result.log, range);
    } else {
        const bound_plan slots(result.plan);  // resolved once (§3.5)
        spill_buffer<T> spill(q, result.plan, range.size());
        if (setup.compressed && native) {
            // A native matrix under an fp32 request is compressed into a
            // temporary copy for callers that set `opts.storage = fp32`
            // on a native batch (batchsolve, one-off solves); hot paths
            // (solve_refined, serve) pre-convert once and reuse.
            batch_matrix<T> tmp = a;
            set_storage(tmp, mat::storage_precision::fp32);
            detail::launch_bound(q, tmp, b, x, opts, slots, result.config,
                                 spill.view(), result.log, range);
        } else {
            detail::launch_bound(q, a, b, x, opts, slots, result.config,
                                 spill.view(), result.log, range);
        }
    }
    result.wall_seconds = timer.seconds();
    result.stats = q.last_launch_stats();
    return result;
}

template <typename T>
solve_result solve(xpu::queue& q, const batch_matrix<T>& a,
                   const mat::batch_dense<T>& b, mat::batch_dense<T>& x,
                   const solve_options& opts)
{
    return solve_range(q, a, b, x, opts, {0, items_of(a)});
}

#define BATCHLIN_INSTANTIATE_DISPATCH(T)                                    \
    template solve_result solve<T>(xpu::queue&, const batch_matrix<T>&,     \
                                   const mat::batch_dense<T>&,              \
                                   mat::batch_dense<T>&,                    \
                                   const solve_options&);                   \
    template solve_result solve_range<T>(                                   \
        xpu::queue&, const batch_matrix<T>&, const mat::batch_dense<T>&,    \
        mat::batch_dense<T>&, const solve_options&, xpu::batch_range);      \
    template detail::launch_setup detail::resolve_launch<T>(                \
        const xpu::exec_policy&, const batch_matrix<T>&,                    \
        const solve_options&);                                              \
    template std::shared_ptr<void> detail::launch_bound<T>(                 \
        xpu::queue&, const batch_matrix<T>&, const mat::batch_dense<T>&,    \
        mat::batch_dense<T>&, const solve_options&, const bound_plan&,      \
        const kernel_config&, spill_view<T>, log::batch_log&,               \
        xpu::batch_range)

BATCHLIN_INSTANTIATE_DISPATCH(float);
BATCHLIN_INSTANTIATE_DISPATCH(double);

}  // namespace batchlin::solver
