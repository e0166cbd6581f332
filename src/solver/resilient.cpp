#include "solver/resilient.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "matrix/conversions.hpp"
#include "solver/assemble.hpp"
#include "solver/direct.hpp"
#include "solver/residual.hpp"
#include "util/timer.hpp"

namespace batchlin::solver {
namespace {

/// The direct terminal stage wants CSR at native storage: dense and ELL
/// convert losslessly, and LU has no refinement loop to recover narrowed
/// bits, so an fp32-storage batch is widened first.
template <typename T>
mat::batch_csr<T> as_native_csr(batch_matrix<T> a)
{
    set_storage(a, mat::storage_precision::native);
    if (auto* csr = std::get_if<mat::batch_csr<T>>(&a)) {
        return std::move(*csr);
    }
    if (const auto* ell = std::get_if<mat::batch_ell<T>>(&a)) {
        return mat::to_csr(*ell);
    }
    return mat::to_csr(std::get<mat::batch_dense<T>>(a));
}

/// Demotes claimed convergences whose explicit residual violates the
/// (slackened) stop target to `device_fault` — the silent-corruption
/// detector.
template <typename T>
void verify_converged(const batch_matrix<T>& a,
                      const mat::batch_dense<T>& b,
                      const mat::batch_dense<T>& x,
                      const stop::criterion& crit, log::batch_log& lg)
{
    const std::vector<double> explicit_res = residual_norms(a, b, x);
    const std::vector<double> rhs_norms = item_norms(b);
    for (index_type i = 0; i < lg.num_systems(); ++i) {
        if (lg.status(i) != log::solve_status::converged) {
            continue;
        }
        const std::size_t si = static_cast<std::size_t>(i);
        const double target =
            crit.type == stop::tolerance_type::absolute
                ? crit.tolerance
                : crit.tolerance * rhs_norms[si];
        // `!(<=)` also demotes NaN explicit residuals. A zero target
        // (zero rhs) accepts only an exact zero residual, which the
        // defined x = 0 short circuit produces.
        if (!(explicit_res[si] <= std::max(target * verify_slack, target))) {
            lg.record(i, lg.iterations(i), explicit_res[si],
                      log::solve_status::device_fault);
        }
    }
}

}  // namespace

resilient_options default_chain(const solve_options& primary)
{
    resilient_options r;
    r.chain.push_back({primary, false});

    solve_options bicg = primary;
    bicg.solver = solver_type::bicgstab;
    bicg.criterion.max_iterations =
        std::max<index_type>(2 * primary.criterion.max_iterations, 200);
    r.chain.push_back({bicg, false});

    solve_options gm = primary;
    gm.solver = solver_type::gmres;
    gm.gmres_restart = std::max<index_type>(2 * primary.gmres_restart, 30);
    gm.criterion.max_iterations = bicg.criterion.max_iterations;
    r.chain.push_back({gm, false});

    fallback_stage direct_stage;
    direct_stage.opts = primary;
    direct_stage.direct = true;
    r.chain.push_back(direct_stage);
    return r;
}

template <typename T>
resilient_result solve_resilient(xpu::queue& q, const batch_matrix<T>& a,
                                 const mat::batch_dense<T>& b,
                                 mat::batch_dense<T>& x,
                                 const resilient_options& opts)
{
    BATCHLIN_ENSURE_MSG(!opts.chain.empty(),
                        "resilient chain must have at least one stage");
    wall_timer timer;
    const index_type n = b.num_batch_items();

    resilient_result out;
    out.log = log::batch_log(n);
    out.history.resize(static_cast<std::size_t>(n));
    std::vector<index_type> scope(static_cast<std::size_t>(n));  // unhealthy
    std::iota(scope.begin(), scope.end(), 0);
    fault_tally faults;
    for (index_type stage_idx = 0;
         stage_idx < static_cast<index_type>(opts.chain.size()) &&
         !scope.empty();
         ++stage_idx) {
        // Stage 0 runs the whole batch in place, so a healthy batch takes
        // the exact path a plain solve() takes, plus one status scan. Later
        // stages re-solve the gathered unhealthy systems from a zero guess:
        // their iterate may carry poisoned values that would instantly
        // re-trip the non-finite guards.
        const bool primary = stage_idx == 0;
        const index_type n_stage = static_cast<index_type>(scope.size());
        batch_matrix<T> sub_a;
        mat::batch_dense<T> sub_b;
        mat::batch_dense<T> sub_x;
        if (!primary) {
            sub_a = detail::gather_items(a, scope);
            sub_b = detail::gather_items(b, scope);
            sub_x = mat::batch_dense<T>(n_stage, x.rows(), x.cols());
        }
        const batch_matrix<T>& stage_a = primary ? a : sub_a;
        const mat::batch_dense<T>& stage_b = primary ? b : sub_b;
        mat::batch_dense<T>& stage_x = primary ? x : sub_x;
        const fallback_stage& stage =
            opts.chain[static_cast<std::size_t>(stage_idx)];
        // Exhausted retries mark the whole scope `device_fault`; only
        // completed launches add counters.
        index_type attempts = 0;
        std::optional<log::batch_log> lg = detail::with_retries(
            {opts.launch_retries}, attempts, faults, [&] {
                if (stage.direct) {
                    log::batch_log direct(n_stage);
                    out.stats += run_dense_lu(q, as_native_csr(stage_a),
                                              stage_b, stage_x, direct,
                                              {0, n_stage});
                    return direct;
                }
                solve_result res = solve(q, stage_a, stage_b, stage_x,
                                         stage.opts);
                out.stats += res.stats;
                return std::move(res.log);
            });
        if (!lg) {
            lg.emplace(n_stage);
            for (index_type j = 0; j < n_stage; ++j) {
                lg->record(j, 0, 0.0, log::solve_status::device_fault);
            }
        }
        verify_converged(stage_a, stage_b, stage_x, stage.opts.criterion,
                         *lg);

        std::vector<index_type> still_unhealthy;
        for (index_type j = 0; j < static_cast<index_type>(scope.size());
             ++j) {
            const index_type i = scope[static_cast<std::size_t>(j)];
            out.history[static_cast<std::size_t>(i)].push_back(
                {stage_idx, lg->status(j), lg->iterations(j),
                 lg->residual_norm(j)});
            out.log.record(i, lg->iterations(j), lg->residual_norm(j),
                           lg->status(j));
            if (lg->status(j) != log::solve_status::converged) {
                still_unhealthy.push_back(i);
            } else if (primary) {
                ++out.first_try;
            } else {
                mat::copy_items(sub_x, j, x, i);
                ++out.recovered;
            }
        }
        scope = std::move(still_unhealthy);
    }

    out.launch_retries_used = faults.retries;
    out.failed = static_cast<index_type>(scope.size());
    out.wall_seconds = timer.seconds();
    return out;
}

template resilient_result solve_resilient<float>(
    xpu::queue&, const batch_matrix<float>&, const mat::batch_dense<float>&,
    mat::batch_dense<float>&, const resilient_options&);
template resilient_result solve_resilient<double>(
    xpu::queue&, const batch_matrix<double>&,
    const mat::batch_dense<double>&, mat::batch_dense<double>&,
    const resilient_options&);

}  // namespace batchlin::solver
