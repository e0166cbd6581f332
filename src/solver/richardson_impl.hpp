// BatchRichardson kernel (library extension; on Ginkgo's batched roadmap).
//
// Preconditioned Richardson iteration x += omega * M (b - A x): the
// simplest batched iterative solver, useful as a smoother and as the
// bottom baseline of the solver hierarchy. With M = diag(A)^{-1} and
// omega = 1 this is the classic Jacobi iteration, convergent on the
// diagonally dominant problem space. Same fused-kernel structure as the
// Krylov solvers: one work-group per system, SLM-planned workspace,
// per-system convergence monitoring.
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
void run_richardson_bound(xpu::queue& q, const MatBatch& a,
                          const Precond& precond,
                          const mat::batch_dense<T>& b,
                          mat::batch_dense<T>& x, const stop::criterion& crit,
                          const bound_plan& slots,
                          const kernel_config& config, spill_view<T> spill,
                          T relaxation, log::batch_log& logger,
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
            // Plan order: r, z, t, x, precond.
            xpu::dspan<T> r = bind.take("r");
            xpu::dspan<T> z = bind.take("z");
            xpu::dspan<T> t = bind.take("t");
            xpu::dspan<T> x_loc = bind.take("x");
            xpu::dspan<T> pc_work = bind.take_optional("precond");

            const auto a_view = blas::item_view_as<S>(*a_ptr, batch, a_slots);
            const auto b_view =
                b_ptr->item_span(batch, xpu::mem_space::constant);
            auto x_global = x_out->item_span(batch);

            const auto pc = precond_ptr->generate(g, a_view, pc_work);

            const initial_norms<T> init = initial_residual<T>(
                g, a_view, b_view, x_global, x_loc, r, {}, config.reduction);
            const T rhs_norm = init.rhs;
            T res_norm = init.res;

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
                pc.apply(g, r, z);
                // r -= omega * A z keeps the residual consistent without a
                // second SpMV against x.
                blas::spmv<T>(g, a_view, z, t);
                blas::axpy<T>(g, -relaxation, t, r);
                res_norm = blas::nrm2<T>(g, r, config.reduction);
                ++iter;
                logger_ptr->record_iteration(batch, iter - 1,
                                             static_cast<double>(res_norm));
                if (!is_finite(res_norm)) {
                    // x keeps the last finite iterate.
                    status = log::solve_status::non_finite;
                    break;
                }
                blas::axpy<T>(g, relaxation, z, x_loc);
                if (stop::is_converged(crit, res_norm, rhs_norm)) {
                    status = log::solve_status::converged;
                }
            }

            blas::copy<T>(g, x_loc, x_global);
            record_outcome(g, *logger_ptr, batch, iter, res_norm, status);
        },
        range.begin, "batch_richardson");
}

}  // namespace batchlin::solver
