// BatchCg kernel (paper Algorithm 1 / §3.5).
//
// Standard preconditioned conjugate gradients, fused into a single batched
// kernel: each work-group runs the whole iteration for its system, keeping
// r, z, p, t and the copy of x in SLM by planner priority. Convergence is
// monitored per system on the explicitly recomputed residual norm.
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
void run_cg_bound(xpu::queue& q, const MatBatch& a, const Precond& precond,
                  const mat::batch_dense<T>& b, mat::batch_dense<T>& x,
                  const stop::criterion& crit, const bound_plan& slots,
                  const kernel_config& config, spill_view<T> spill,
                  log::batch_log& logger, xpu::batch_range range)
{
    // Recordable closure: operands enter by address of caller-owned
    // storage, configuration structs by value — nothing refers to this
    // stack frame once run_batch returns (see run_decl.hpp).
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
            // Plan order for CG: r, z, p, t, x, precond (§3.5).
            xpu::dspan<T> r = bind.take("r");
            xpu::dspan<T> z = bind.take("z");
            xpu::dspan<T> p = bind.take("p");
            xpu::dspan<T> t = bind.take("t");
            xpu::dspan<T> x_loc = bind.take("x");
            xpu::dspan<T> pc_work = bind.take_optional("precond");

            const auto a_view = blas::item_view_as<S>(*a_ptr, batch, a_slots);
            const auto b_view =
                b_ptr->item_span(batch, xpu::mem_space::constant);
            auto x_global = x_out->item_span(batch);

            const auto pc = precond_ptr->generate(g, a_view, pc_work);

            // x_loc starts from the caller's initial guess (paper §1: the
            // initial-guess capability is the point of iterative solvers),
            // and r = b - A x.
            const initial_norms<T> init = initial_residual<T>(
                g, a_view, b_view, x_global, x_loc, r, {}, config.reduction);
            const T rhs_norm = init.rhs;
            T res_norm = init.res;

            pc.apply(g, r, z);
            blas::copy<T>(g, z, p);
            T rho = blas::dot<T>(g, r, z, config.reduction);

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
                blas::spmv<T>(g, a_view, p, t);
                const T pt = blas::dot<T>(g, p, t, config.reduction);
                if (pt == T{0}) {
                    status = log::solve_status::direction_annihilated;
                    break;
                }
                const T alpha = rho / pt;
                blas::axpy<T>(g, -alpha, t, r);
                res_norm = blas::nrm2<T>(g, r, config.reduction);
                ++iter;
                logger_ptr->record_iteration(batch, iter - 1,
                                             static_cast<double>(res_norm));
                if (!is_finite(res_norm)) {
                    // x keeps the last finite iterate.
                    status = log::solve_status::non_finite;
                    break;
                }
                blas::axpy<T>(g, alpha, p, x_loc);
                if (stop::is_converged(crit, res_norm, rhs_norm)) {
                    status = log::solve_status::converged;
                    break;
                }
                pc.apply(g, r, z);
                const T rho_new = blas::dot<T>(g, r, z, config.reduction);
                if (rho == T{0}) {
                    status = log::solve_status::breakdown_rho;
                    break;
                }
                const T beta = rho_new / rho;
                blas::axpby<T>(g, T{1}, z, beta, p);
                rho = rho_new;
            }

            blas::copy<T>(g, x_loc, x_global);
            record_outcome(g, *logger_ptr, batch, iter, res_norm, status);
        },
        range.begin, "batch_cg");
}

}  // namespace batchlin::solver
