#include "solver/refined.hpp"

#include <algorithm>
#include <functional>

#include "solver/assemble.hpp"
#include "solver/residual.hpp"
#include "solver/resilient.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace batchlin::solver {
namespace {

/// Tolerance of the compressed inner solves: looser is wasted accuracy,
/// tighter is unreachable on fp32 storage.
constexpr double inner_tolerance = 1e-6;
/// A sweep that does not shrink a system's true residual by this factor
/// means the compressed operator cannot resolve the remaining error: the
/// system has stalled, and falls back.
constexpr double stall_threshold = 0.5;

}  // namespace

template <typename T>
refined_result solve_refined(xpu::queue& q, const batch_matrix<T>& a,
                             const batch_matrix<T>& compressed,
                             const mat::batch_dense<T>& b,
                             mat::batch_dense<T>& x,
                             const solve_options& opts,
                             const refine_options& ropts)
{
    opts.criterion.validate();
    BATCHLIN_ENSURE_MSG(ropts.max_sweeps >= 0,
                        "negative refinement sweep budget");
    BATCHLIN_ENSURE_MSG(
        storage_of(a) == mat::storage_precision::native,
        "solve_refined needs the native-storage matrix for its FP64 "
        "residuals");
    wall_timer timer;
    refined_result out;
    const index_type items = items_of(a);
    const index_type rows = rows_of(a);

    if (mat::effective_storage<T>(opts.storage) ==
        mat::storage_precision::native) {
        // Nothing to refine: plain solve plus a true-residual report.
        solve_options direct = opts;
        direct.refine_sweeps = 0;
        const solve_result res = solve(q, a, b, x, direct);
        out.log = res.log;
        out.stats = res.stats;
        out.true_residuals = relative_residual_norms(a, b, x);
        out.wall_seconds = timer.seconds();
        return out;
    }

    BATCHLIN_ENSURE_MSG(
        storage_of(compressed) == mat::storage_precision::fp32 &&
            same_shape(a, compressed),
        "the compressed operator must be the fp32-storage copy of a");

    // Inner solves run on the compressed operator to the loose inner
    // tolerance — a tighter target is unreachable on fp32 storage anyway.
    solve_options inner = opts;
    inner.refine_sweeps = 0;
    inner.record_history = false;
    inner.criterion.tolerance =
        std::max(opts.criterion.tolerance, inner_tolerance);

    // Every system refines on its own: it sweeps until it meets its
    // target, stalls or runs out of sweeps, and a stopped system never
    // changes again. Its result is therefore independent of its batch
    // companions, so a coalesced refined batch stays bit-identical to solo
    // solves. The iterate lives in a working copy until the end, so a
    // device fault mid-refinement leaves `x` at the caller's initial guess
    // and a retry starts where a solo solve would.
    mat::batch_dense<T> xw = x;
    std::vector<index_type> iterations(static_cast<std::size_t>(items), 0);
    std::vector<bool> active(static_cast<std::size_t>(items), true);
    const auto accumulate = [&](const solve_result& res) {
        out.stats += res.stats;
        for (index_type i = 0; i < items; ++i) {
            if (active[static_cast<std::size_t>(i)]) {
                iterations[static_cast<std::size_t>(i)] +=
                    res.log.iterations(i);
            }
        }
    };

    accumulate(solve(q, compressed, b, xw, inner));

    const std::vector<double> bnorm = item_norms(b);
    const auto target = [&](index_type i) {
        return opts.criterion.type == stop::tolerance_type::absolute
                   ? opts.criterion.tolerance
                   : opts.criterion.tolerance *
                         bnorm[static_cast<std::size_t>(i)];
    };

    mat::batch_dense<T> r(items, rows, 1);
    mat::batch_dense<T> d(items, rows, 1);
    const auto true_norms = [&] {
        residual_vectors(a, b, xw, r);
        return item_norms(r);
    };
    std::vector<double> rnorm = true_norms();
    // NaN-safe: a non-finite residual counts as unmet.
    const auto unmet = [&](index_type i) {
        return !(rnorm[static_cast<std::size_t>(i)] <= target(i));
    };
    for (index_type i = 0; i < items; ++i) {
        active[static_cast<std::size_t>(i)] = unmet(i);
    }

    while (std::find(active.begin(), active.end(), true) != active.end() &&
           out.sweeps < ropts.max_sweeps) {
        // Correction solve A32 d = r from a zero guess; its stop target is
        // relative to the correction RHS, which is exactly what the inner
        // relative criterion gives when solving against r. A stopped
        // system's residual is zeroed, so its correction short-circuits.
        for (index_type i = 0; i < items; ++i) {
            if (!active[static_cast<std::size_t>(i)]) {
                std::fill_n(r.item_values(i), rows, T{});
            }
        }
        d.fill(T{});
        accumulate(solve(q, compressed, r, d, inner));
        for (index_type i = 0; i < items; ++i) {
            if (active[static_cast<std::size_t>(i)]) {
                std::transform(xw.item_values(i), xw.item_values(i) + rows,
                               d.item_values(i), xw.item_values(i),
                               std::plus<>());
            }
        }
        const std::vector<double> before = rnorm;
        rnorm = true_norms();
        ++out.sweeps;
        // Classic IR contracts the error by ~cond(A)·eps32 per sweep, so a
        // sweep that fails the threshold signals an operator the
        // compressed storage cannot resolve; sweeping on would burn
        // launches for nothing.
        for (index_type i = 0; i < items; ++i) {
            const auto s = static_cast<std::size_t>(i);
            active[s] = active[s] && unmet(i) &&
                        rnorm[s] <= stall_threshold * before[s];
        }
    }

    std::vector<index_type> short_of_target;
    for (index_type i = 0; i < items; ++i) {
        if (unmet(i)) {
            short_of_target.push_back(i);
        }
    }
    // The fallback chain's verdict, kept for the systems it fails on.
    std::vector<log::solve_status> chain(static_cast<std::size_t>(items),
                                         log::solve_status::converged);
    if (!short_of_target.empty()) {
        // Refinement stalled (or ran out of sweeps) short of the target:
        // demote exactly those systems to the native-storage fallback
        // chain, so the caller never gets worse accuracy than a plain
        // native solve and converged companions keep their bits.
        solve_options primary = opts;
        primary.storage = mat::storage_precision::native;
        primary.refine_sweeps = 0;
        mat::batch_dense<T> sub_x = detail::gather_items(xw, short_of_target);
        const resilient_result rr = solve_resilient(
            q, detail::gather_items(a, short_of_target),
            detail::gather_items(b, short_of_target), sub_x,
            default_chain(primary));
        out.stats += rr.stats;
        out.fell_back = true;
        for (index_type j = 0; j < sub_x.num_batch_items(); ++j) {
            const index_type i = short_of_target[static_cast<std::size_t>(j)];
            iterations[static_cast<std::size_t>(i)] += rr.log.iterations(j);
            chain[static_cast<std::size_t>(i)] = rr.log.status(j);
            mat::copy_items(sub_x, j, xw, i);
        }
        rnorm = true_norms();
    }
    x = std::move(xw);

    out.log = log::batch_log(items);
    out.true_residuals.resize(static_cast<std::size_t>(items));
    for (index_type i = 0; i < items; ++i) {
        const double norm = rnorm[static_cast<std::size_t>(i)];
        const double bn = bnorm[static_cast<std::size_t>(i)];
        out.true_residuals[static_cast<std::size_t>(i)] =
            bn > 0.0 ? norm / bn : norm;
        const log::solve_status failed = chain[static_cast<std::size_t>(i)];
        out.log.record(i, iterations[static_cast<std::size_t>(i)], norm,
                       failed != log::solve_status::converged ? failed
                       : norm <= target(i) ? log::solve_status::converged
                                           : log::solve_status::max_iterations);
    }
    out.wall_seconds = timer.seconds();
    return out;
}

template <typename T>
refined_result solve_refined(xpu::queue& q, const batch_matrix<T>& a,
                             const mat::batch_dense<T>& b,
                             mat::batch_dense<T>& x,
                             const solve_options& opts,
                             const refine_options& ropts)
{
    if (mat::effective_storage<T>(opts.storage) ==
        mat::storage_precision::native) {
        // The compressed operand is never touched on the native path.
        return solve_refined(q, a, a, b, x, opts, ropts);
    }
    batch_matrix<T> compressed = a;
    set_storage(compressed, mat::storage_precision::fp32);
    return solve_refined(q, a, compressed, b, x, opts, ropts);
}

#define BATCHLIN_INSTANTIATE_REFINED(T)                                     \
    template refined_result solve_refined<T>(                               \
        xpu::queue&, const batch_matrix<T>&, const batch_matrix<T>&,        \
        const mat::batch_dense<T>&, mat::batch_dense<T>&,                   \
        const solve_options&, const refine_options&);                       \
    template refined_result solve_refined<T>(                               \
        xpu::queue&, const batch_matrix<T>&, const mat::batch_dense<T>&,    \
        mat::batch_dense<T>&, const solve_options&,                         \
        const refine_options&)

BATCHLIN_INSTANTIATE_REFINED(float);
BATCHLIN_INSTANTIATE_REFINED(double);

}  // namespace batchlin::solver
