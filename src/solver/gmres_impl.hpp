// BatchGmres kernel: restarted GMRES(m) with left preconditioning.
//
// The Krylov basis dominates the workspace ((m+1) rows-vectors), so the
// planner places the per-step scratch and the small Hessenberg system ahead
// of it in priority. The least-squares problem is solved incrementally with
// Givens rotations; the monitored quantity is the preconditioned residual
// norm |g_{j+1}| (exact for the preconditioned system), and an explicit
// residual is recomputed at each restart boundary.
#pragma once

#include <cmath>
#include <limits>

#include "blas/device_blas.hpp"
#include "blas/matrix_view.hpp"
#include "blas/spmv.hpp"
#include "solver/kernel_common.hpp"
#include "solver/run_decl.hpp"

namespace batchlin::solver {

template <typename T, typename MatBatch, typename Precond,
          typename S>
void run_gmres_bound(xpu::queue& q, const MatBatch& a,
                     const Precond& precond, const mat::batch_dense<T>& b,
                     mat::batch_dense<T>& x, const stop::criterion& crit,
                     const bound_plan& slots, const kernel_config& config,
                     spill_view<T> spill, index_type restart,
                     log::batch_log& logger, xpu::batch_range range)
{
    const index_type rows = a.rows();
    const index_type m = restart;
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
            // Plan order: w, hessenberg, givens, basis, x, y, precond.
            xpu::dspan<T> w = bind.take("w");
            xpu::dspan<T> hess = bind.take("hessenberg");  // (m+1) x m
            xpu::dspan<T> givens = bind.take("givens");    // cs | sn | g
            xpu::dspan<T> basis = bind.take("basis");      // (m+1) x rows
            xpu::dspan<T> x_loc = bind.take("x");
            xpu::dspan<T> y = bind.take("y");
            xpu::dspan<T> pc_work = bind.take_optional("precond");

            xpu::dspan<T> cs = givens.subspan(0, m + 1);
            xpu::dspan<T> sn = givens.subspan(m + 1, m + 1);
            xpu::dspan<T> gvec = givens.subspan(2 * (m + 1), m + 1);
            // decltype(auto): hess[...] is a plain T& in default builds
            // and a recording proxy under BATCHLIN_XPU_CHECK.
            auto h_at = [&](index_type i, index_type j) -> decltype(auto) {
                return hess[i * m + j];
            };
            auto basis_vec = [&](index_type j) {
                return basis.subspan(j * rows, rows);
            };

            const auto a_view = blas::item_view_as<S>(*a_ptr, batch, a_slots);
            const auto b_view =
                b_ptr->item_span(batch, xpu::mem_space::constant);
            auto x_global = x_out->item_span(batch);

            const auto pc = precond_ptr->generate(g, a_view, pc_work);

            // w = b - A x for the first restart.
            const bool zero_guess = guess_residual<T>(
                g, a_view, b_view, x_global, x_loc, w, {}, config.reduction);
            // Preconditioned rhs norm for the relative criterion: the
            // monitored residual lives in the preconditioned space. On the
            // zero guess M b is also the first restart's z0.
            pc.apply(g, b_view, basis_vec(0));
            const T rhs_norm =
                blas::nrm2<T>(g, basis_vec(0), config.reduction);

            index_type iter = 0;
            log::solve_status status = log::solve_status::max_iterations;
            T res_norm{};
            if (stop::zero_rhs_short_circuit(crit, rhs_norm)) {
                // ||M b|| == 0 under a relative tolerance: defined as
                // solved by x = 0 exactly (stop::zero_rhs_short_circuit).
                blas::fill<T>(g, x_loc, T{0});
                status = log::solve_status::converged;
            }
            while (status == log::solve_status::max_iterations &&
                   iter < crit.max_iterations) {
                // Restart: z0 = M (b - A x). The first restart's w is the
                // prologue's, and on the zero guess its z0 is M b.
                xpu::dspan<T> v0 = basis_vec(0);
                if (iter > 0) {
                    blas::spmv<T>(g, a_view, x_loc, w);
                    blas::axpby<T>(g, T{1}, b_view, T{-1}, w);
                }
                T beta = rhs_norm;
                if (iter > 0 || !zero_guess) {
                    pc.apply(g, w, v0);
                    beta = blas::nrm2<T>(g, v0, config.reduction);
                }
                res_norm = beta;
                if (!is_finite(beta)) {
                    status = log::solve_status::non_finite;
                    break;
                }
                if (stop::is_converged(crit, beta, rhs_norm)) {
                    status = log::solve_status::converged;
                    break;
                }
                blas::scale<T>(g, T{1} / beta, v0);
                g.for_items(m + 1, [&](index_type i) { gvec[i] = T{0}; });
                gvec[0] = beta;

                index_type j = 0;
                for (; j < m && iter < crit.max_iterations; ++j) {
                    // w = M A v_j (left preconditioning).
                    xpu::dspan<T> vj = basis_vec(j);
                    blas::spmv<T>(g, a_view, vj, w);
                    xpu::dspan<T> vnext = basis_vec(j + 1);
                    pc.apply(g, w, vnext);

                    // Modified Gram-Schmidt against the basis so far.
                    for (index_type i = 0; i <= j; ++i) {
                        const T hij = blas::dot<T>(g, vnext, basis_vec(i),
                                                   config.reduction);
                        h_at(i, j) = hij;
                        blas::axpy<T>(g, -hij, basis_vec(i), vnext);
                    }
                    const T hnext =
                        blas::nrm2<T>(g, vnext, config.reduction);
                    h_at(j + 1, j) = hnext;
                    if (hnext != T{0}) {
                        blas::scale<T>(g, T{1} / hnext, vnext);
                    }

                    // Apply the accumulated rotations to the new column,
                    // then compute and apply this step's rotation.
                    for (index_type i = 0; i < j; ++i) {
                        const T tmp = cs[i] * h_at(i, j) +
                                      sn[i] * h_at(i + 1, j);
                        h_at(i + 1, j) = -sn[i] * h_at(i, j) +
                                         cs[i] * h_at(i + 1, j);
                        h_at(i, j) = tmp;
                    }
                    const T denom = std::sqrt(h_at(j, j) * h_at(j, j) +
                                              h_at(j + 1, j) *
                                                  h_at(j + 1, j));
                    // The rotations are orthogonal, so the column keeps
                    // its norm: |M A v_j|^2 = sum_{i<j} h_ij^2 + denom^2.
                    T column = denom * denom;
                    for (index_type i = 0; i < j; ++i) {
                        column += h_at(i, j) * h_at(i, j);
                    }
                    if (denom <= T{64} * std::numeric_limits<T>::epsilon() *
                                     std::sqrt(column)) {
                        // The rotated Hessenberg column vanished to
                        // working precision: the projected operator
                        // annihilated v_j (A singular, or numerically so,
                        // on the Krylov space). A rotation by this
                        // rounding residue would zero |g_{j+1}| and fake
                        // convergence, and the triangular solve would
                        // divide by the (near-)zero diagonal — exit with
                        // the last restart's iterate instead.
                        status = log::solve_status::direction_annihilated;
                        break;
                    }
                    cs[j] = h_at(j, j) / denom;
                    sn[j] = h_at(j + 1, j) / denom;
                    h_at(j, j) = cs[j] * h_at(j, j) +
                                 sn[j] * h_at(j + 1, j);
                    h_at(j + 1, j) = T{0};
                    gvec[j + 1] = -sn[j] * gvec[j];
                    gvec[j] = cs[j] * gvec[j];
                    // Small dense updates: charge the Hessenberg traffic.
                    g.stats().flops += 10.0 * (j + 2);
                    blas::detail::charge_read(g, hess, 2 * (j + 2));
                    g.barrier();

                    ++iter;
                    res_norm = std::abs(gvec[j + 1]);
                    logger_ptr->record_iteration(
                        batch, iter - 1, static_cast<double>(res_norm));
                    if (!is_finite(res_norm)) {
                        status = log::solve_status::non_finite;
                        break;
                    }
                    if (stop::is_converged(crit, res_norm, rhs_norm)) {
                        ++j;
                        status = log::solve_status::converged;
                        break;
                    }
                }
                if (status == log::solve_status::non_finite ||
                    status == log::solve_status::direction_annihilated) {
                    // The basis is corrupted or the projected operator is
                    // singular; leave x at the last restart's iterate
                    // instead of folding NaNs / dividing by zero.
                    break;
                }

                // Solve the upper-triangular system H y = g and update x.
                for (index_type i = j - 1; i >= 0; --i) {
                    T sum = gvec[i];
                    for (index_type k = i + 1; k < j; ++k) {
                        sum -= h_at(i, k) * y[k];
                    }
                    y[i] = sum / h_at(i, i);
                    g.stats().flops += 2.0 * (j - i);
                }
                g.barrier();
                for (index_type i = 0; i < j; ++i) {
                    blas::axpy<T>(g, y[i], basis_vec(i), x_loc);
                }
            }

            blas::copy<T>(g, x_loc, x_global);
            record_outcome(g, *logger_ptr, batch, iter, res_norm, status);
        },
        range.begin, "batch_gmres");
}

}  // namespace batchlin::solver
