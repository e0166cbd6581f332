#include "solver/refined.hpp"

#include <algorithm>

#include "solver/assemble.hpp"
#include "solver/residual.hpp"
#include "solver/resilient.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace batchlin::solver {

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
        std::max(opts.criterion.tolerance, ropts.inner_tolerance);

    std::vector<index_type> iterations(static_cast<std::size_t>(items), 0);
    const auto accumulate = [&](const solve_result& res) {
        out.stats += res.stats;
        for (index_type i = 0; i < items; ++i) {
            iterations[static_cast<std::size_t>(i)] +=
                res.log.iterations(i);
        }
    };

    accumulate(solve(q, compressed, b, x, inner));

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
        residual_vectors(a, b, x, r);
        return item_norms(r);
    };
    std::vector<double> rnorm = true_norms();
    const auto all_met = [&] {
        for (index_type i = 0; i < items; ++i) {
            if (rnorm[static_cast<std::size_t>(i)] > target(i)) {
                return false;
            }
        }
        return true;
    };

    bool stalled = false;
    while (!all_met() && out.sweeps < ropts.max_sweeps && !stalled) {
        // Correction solve A32 d = r from a zero guess; its stop target is
        // relative to the correction RHS, which is exactly what the inner
        // relative criterion gives when solving against r.
        d.fill(T{});
        accumulate(solve(q, compressed, r, d, inner));
        {
            auto& xv = x.values();
            const auto& dv = d.values();
            for (std::size_t s = 0; s < xv.size(); ++s) {
                xv[s] += dv[s];
            }
        }
        // Progress check on the worst still-unconverged system: classic IR
        // contracts the error by ~cond(A)·eps32 per sweep, so a sweep that
        // fails the threshold signals an operator the compressed storage
        // cannot resolve — keep sweeping would burn launches for nothing.
        double worst_before = 0.0;
        for (index_type i = 0; i < items; ++i) {
            if (rnorm[static_cast<std::size_t>(i)] > target(i)) {
                worst_before = std::max(
                    worst_before, rnorm[static_cast<std::size_t>(i)]);
            }
        }
        rnorm = true_norms();
        ++out.sweeps;
        double worst_after = 0.0;
        for (index_type i = 0; i < items; ++i) {
            if (rnorm[static_cast<std::size_t>(i)] > target(i)) {
                worst_after = std::max(worst_after,
                                       rnorm[static_cast<std::size_t>(i)]);
            }
        }
        if (worst_after > 0.0 &&
            worst_after > ropts.stall_threshold * worst_before) {
            stalled = true;
        }
    }

    if (!all_met() && ropts.fallback_to_native) {
        // Refinement stalled (or ran out of sweeps) short of the target:
        // demote to the native-storage fallback chain so the caller never
        // gets worse accuracy than a plain native solve.
        solve_options primary = opts;
        primary.storage = mat::storage_precision::native;
        primary.refine_sweeps = 0;
        const resilient_result rr =
            solve_resilient(q, a, b, x, default_chain(primary));
        out.stats += rr.stats;
        out.fell_back = true;
        for (index_type i = 0; i < items; ++i) {
            iterations[static_cast<std::size_t>(i)] += rr.log.iterations(i);
        }
        rnorm = true_norms();
    }

    out.log = log::batch_log(items);
    out.true_residuals.resize(static_cast<std::size_t>(items));
    for (index_type i = 0; i < items; ++i) {
        const double norm = rnorm[static_cast<std::size_t>(i)];
        const double bn = bnorm[static_cast<std::size_t>(i)];
        out.true_residuals[static_cast<std::size_t>(i)] =
            bn > 0.0 ? norm / bn : norm;
        out.log.record(i, iterations[static_cast<std::size_t>(i)], norm,
                       norm <= target(i)
                           ? log::solve_status::converged
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
