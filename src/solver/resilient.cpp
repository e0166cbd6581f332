#include "solver/resilient.hpp"

#include <algorithm>
#include <chrono>

#include "matrix/conversions.hpp"
#include "solver/assemble.hpp"
#include "solver/direct.hpp"
#include "solver/residual.hpp"
#include "xpu/fault.hpp"

namespace batchlin::solver {
namespace {

double now_seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

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

/// Runs one stage over the gathered scope with launch retries. Returns the
/// per-system log of the scope; on exhausted retries every system of the
/// scope is marked `device_fault`. Adds the counters of every launch that
/// completed to `stats`.
template <typename T>
log::batch_log run_stage(xpu::queue& q, const fallback_stage& stage,
                         const batch_matrix<T>& a,
                         const mat::batch_dense<T>& b,
                         mat::batch_dense<T>& x, index_type launch_retries,
                         index_type& retries_used, xpu::counters& stats)
{
    const index_type n = b.num_batch_items();
    for (index_type attempt = 0;; ++attempt) {
        try {
            if (stage.direct) {
                const mat::batch_csr<T> csr = as_native_csr(a);
                log::batch_log lg(n);
                stats += run_dense_lu(q, csr, b, x, lg, {0, n});
                return lg;
            }
            solve_result res = solve(q, a, b, x, stage.opts);
            stats += res.stats;
            return std::move(res.log);
        } catch (const xpu::device_error&) {
            if (attempt >= launch_retries) {
                log::batch_log lg(n);
                for (index_type i = 0; i < n; ++i) {
                    lg.record(i, 0, 0.0, log::solve_status::device_fault);
                }
                return lg;
            }
            ++retries_used;
        }
    }
}

/// Demotes claimed convergences whose explicit residual violates the
/// (slackened) stop target to `device_fault` — the silent-corruption
/// detector. Returns how many systems were demoted.
template <typename T>
index_type verify_converged(const batch_matrix<T>& a,
                            const mat::batch_dense<T>& b,
                            const mat::batch_dense<T>& x,
                            const stop::criterion& crit, double slack,
                            log::batch_log& lg)
{
    const std::vector<double> explicit_res = residual_norms(a, b, x);
    const std::vector<double> rhs_norms = item_norms(b);
    index_type demoted = 0;
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
        if (!(explicit_res[si] <= std::max(target * slack, target))) {
            lg.record(i, lg.iterations(i), explicit_res[si],
                      log::solve_status::device_fault);
            ++demoted;
        }
    }
    return demoted;
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
    const double start = now_seconds();
    const index_type n = b.num_batch_items();

    resilient_result out;
    out.log = log::batch_log(n);
    out.history.resize(static_cast<std::size_t>(n));

    // Stage 0 runs the whole batch in place, so a healthy batch takes the
    // exact path a plain solve() takes, plus one status scan.
    const fallback_stage& primary = opts.chain.front();
    log::batch_log stage_log =
        run_stage(q, primary, a, b, x, opts.launch_retries,
                  out.launch_retries_used, out.stats);
    if (opts.verify_residuals) {
        verify_converged(a, b, x, primary.opts.criterion, opts.verify_slack,
                         stage_log);
    }

    std::vector<index_type> scope;  // systems still unhealthy
    for (index_type i = 0; i < n; ++i) {
        out.history[static_cast<std::size_t>(i)].push_back(
            {0, stage_log.status(i), stage_log.iterations(i),
             stage_log.residual_norm(i)});
        out.log.record(i, stage_log.iterations(i),
                       stage_log.residual_norm(i), stage_log.status(i));
        if (stage_log.status(i) == log::solve_status::converged) {
            ++out.first_try;
        } else {
            scope.push_back(i);
        }
    }

    for (index_type stage_idx = 1;
         stage_idx < static_cast<index_type>(opts.chain.size()) &&
         !scope.empty();
         ++stage_idx) {
        const fallback_stage& stage =
            opts.chain[static_cast<std::size_t>(stage_idx)];
        batch_matrix<T> sub_a = detail::gather_items(a, scope);
        mat::batch_dense<T> sub_b = detail::gather_items(b, scope);
        // Zero initial guess: the unhealthy iterate may carry poisoned
        // values that would instantly re-trip the non-finite guards.
        mat::batch_dense<T> sub_x(static_cast<index_type>(scope.size()),
                                  x.rows(), x.cols());

        log::batch_log sub_log =
            run_stage(q, stage, sub_a, sub_b, sub_x, opts.launch_retries,
                      out.launch_retries_used, out.stats);
        if (opts.verify_residuals) {
            verify_converged(sub_a, sub_b, sub_x, stage.opts.criterion,
                             opts.verify_slack, sub_log);
        }

        std::vector<index_type> still_unhealthy;
        for (index_type j = 0;
             j < static_cast<index_type>(scope.size()); ++j) {
            const index_type i = scope[static_cast<std::size_t>(j)];
            out.history[static_cast<std::size_t>(i)].push_back(
                {stage_idx, sub_log.status(j), sub_log.iterations(j),
                 sub_log.residual_norm(j)});
            out.log.record(i, sub_log.iterations(j),
                           sub_log.residual_norm(j), sub_log.status(j));
            if (sub_log.status(j) == log::solve_status::converged) {
                detail::copy_items(sub_x, j, x, i);
                ++out.recovered;
            } else {
                still_unhealthy.push_back(i);
            }
        }
        scope = std::move(still_unhealthy);
    }

    out.failed = static_cast<index_type>(scope.size());
    out.wall_seconds = now_seconds() - start;
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
