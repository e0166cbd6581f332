// BatchBicgstab kernel.
//
// Preconditioned BiCGSTAB in the fused single-kernel form; this is the
// solver the paper benchmarks on all PeleLM inputs (the chemistry systems
// are non-SPD, §4.3). Convergence is checked per system both at the
// half-step (on s) and after the full step (on r). Breakdown of the
// shadow-residual correlation or of the stabilization denominator exits
// the loop with the last valid iterate.
#pragma once

#include <cmath>

#include "blas/device_blas.hpp"
#include "blas/matrix_view.hpp"
#include "blas/spmv.hpp"
#include "solver/kernel_common.hpp"
#include "solver/run_decl.hpp"

namespace batchlin::solver {

template <typename T, typename MatBatch, typename Precond,
          typename S>
void run_bicgstab_bound(xpu::queue& q, const MatBatch& a,
                        const Precond& precond, const mat::batch_dense<T>& b,
                        mat::batch_dense<T>& x, const stop::criterion& crit,
                        const bound_plan& slots, const kernel_config& config,
                        spill_view<T> spill, log::batch_log& logger,
                        xpu::batch_range range)
{
    // Recordable closure: operands enter by address of caller-owned
    // storage, configuration structs by value (see run_decl.hpp).
    const MatBatch* const a_ptr = &a;
    const double a_slots = blas::spmv_slots(a, config.sub_group_size);
    const Precond* const precond_ptr = &precond;
    const mat::batch_dense<T>* const b_ptr = &b;
    mat::batch_dense<T>* const x_out = &x;
    const bound_plan* const slots_ptr = &slots;
    log::batch_log* const logger_ptr = &logger;

    q.run_batch(
        range.size(), config.work_group_size, config.sub_group_size,
        [=](xpu::group& g) {
            const index_type batch = g.id();
            const index_type local = batch - range.begin;
            workspace_binder<T> bind(g, *slots_ptr, spill.for_group(local));
            // Plan order: r, p, v, s, t, p_hat, s_hat, r_hat, x, precond.
            xpu::dspan<T> r = bind.take("r");
            xpu::dspan<T> p = bind.take("p");
            xpu::dspan<T> v = bind.take("v");
            xpu::dspan<T> s = bind.take("s");
            xpu::dspan<T> t = bind.take("t");
            xpu::dspan<T> p_hat = bind.take("p_hat");
            xpu::dspan<T> s_hat = bind.take("s_hat");
            xpu::dspan<T> r_hat = bind.take("r_hat");
            xpu::dspan<T> x_loc = bind.take("x");
            xpu::dspan<T> pc_work = bind.take_optional("precond");

            const auto a_view = blas::item_view_as<S>(*a_ptr, batch, a_slots);
            const auto b_view =
                b_ptr->item_span(batch, xpu::mem_space::constant);
            auto x_global = x_out->item_span(batch);

            const auto pc = precond_ptr->generate(g, a_view, pc_work);

            // r = b - A x; the shadow residual is frozen at r0.
            const initial_norms<T> init = initial_residual<T>(
                g, a_view, b_view, x_global, x_loc, r, r_hat,
                config.reduction);
            blas::fill<T>(g, p, T{0});
            blas::fill<T>(g, v, T{0});

            const T rhs_norm = init.rhs;
            T res_norm = init.res;

            T rho = T{1};
            T alpha = T{1};
            T omega = T{1};

            index_type iter = 0;
            log::solve_status status = log::solve_status::max_iterations;
            if (stop::zero_rhs_short_circuit(crit, rhs_norm)) {
                // ||b|| == 0 under a relative tolerance: defined as solved
                // by x = 0 exactly (see stop::zero_rhs_short_circuit).
                blas::fill<T>(g, x_loc, T{0});
                res_norm = T{0};
                status = log::solve_status::converged;
            } else if (stop::is_converged(crit, res_norm, rhs_norm)) {
                status = log::solve_status::converged;
            } else if (!is_finite(res_norm)) {
                status = log::solve_status::non_finite;
            }
            while (status == log::solve_status::max_iterations &&
                   iter < crit.max_iterations) {
                const T rho_new =
                    blas::dot<T>(g, r_hat, r, config.reduction);
                // Stabilization breakdown is tested before the shadow
                // residual: an exact omega == 0 also zeroes the next
                // rho_new, and labeling that as breakdown_rho would
                // misdirect the fallback chain.
                if (omega == T{0}) {
                    status = log::solve_status::breakdown_omega;
                    break;
                }
                if (rho_new == T{0}) {
                    status = log::solve_status::breakdown_rho;
                    break;
                }
                const T beta = (rho_new / rho) * (alpha / omega);
                // p = r + beta * (p - omega * v).
                blas::direction_update<T>(g, r, beta, omega, v, p);

                pc.apply(g, p, p_hat);
                // v = A p_hat with r_hat . v from the same pass.
                const T rv = blas::spmv_dot<T>(g, a_view, p_hat, v, r_hat,
                                               config.reduction);
                if (rv == T{0}) {
                    status = log::solve_status::direction_annihilated;
                    break;
                }
                alpha = rho_new / rv;

                // s = r - alpha * v.
                const T s_norm =
                    blas::axpy_nrm2<T>(g, -alpha, v, r, s, config.reduction);
                ++iter;
                logger_ptr->record_iteration(batch, iter - 1,
                                             static_cast<double>(s_norm));
                if (!is_finite(s_norm)) {
                    res_norm = s_norm;
                    status = log::solve_status::non_finite;
                    break;
                }
                if (stop::is_converged(crit, s_norm, rhs_norm)) {
                    blas::axpy<T>(g, alpha, p_hat, x_loc);
                    res_norm = s_norm;
                    status = log::solve_status::converged;
                    break;
                }

                pc.apply(g, s, s_hat);
                // t = A s_hat with t . t and t . s from the same pass.
                const auto [tt, ts] = blas::spmv_dot2<T>(
                    g, a_view, s_hat, t, s, config.reduction);
                if (tt == T{0}) {
                    blas::axpy<T>(g, alpha, p_hat, x_loc);
                    res_norm = s_norm;
                    status = log::solve_status::breakdown_omega;
                    break;
                }
                omega = ts / tt;

                // x += alpha * p_hat + omega * s_hat.
                blas::axpy2<T>(g, alpha, p_hat, omega, s_hat, x_loc);
                // r = s - omega * t.
                res_norm =
                    blas::axpy_nrm2<T>(g, -omega, t, s, r, config.reduction);
                logger_ptr->record_iteration(batch, iter - 1,
                                             static_cast<double>(res_norm));
                rho = rho_new;
                if (!is_finite(res_norm)) {
                    status = log::solve_status::non_finite;
                    break;
                }
                if (stop::is_converged(crit, res_norm, rhs_norm)) {
                    status = log::solve_status::converged;
                }
            }

            blas::copy<T>(g, x_loc, x_global);
            record_outcome(g, *logger_ptr, batch, iter, res_norm, status);
        },
        range.begin, "batch_bicgstab");
}

}  // namespace batchlin::solver
