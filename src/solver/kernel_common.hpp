// Shared infrastructure of the fused batched solver kernels.
//
// Every solver follows the same shape (paper §3.2–§3.5): one launch, one
// work-group per system, workspace vectors bound SLM-or-global according to
// the planner, preconditioner generated in-kernel, per-system convergence
// monitoring recorded to the logger. The binder below hands each kernel its
// vectors in exactly the planner's priority order.
#pragma once

#include "blas/device_blas.hpp"
#include "blas/spmv.hpp"
#include "log/logger.hpp"
#include "matrix/batch_dense.hpp"
#include "solver/launch.hpp"
#include "solver/workspace.hpp"
#include "stop/criterion.hpp"
#include "xpu/group.hpp"
#include "xpu/queue.hpp"

namespace batchlin::solver {

/// Binds the resolved plan's slots to storage for one work-group: SLM
/// slots are carved from the group's arena, spilled slots from this
/// group's slice of the global backing array. Slots MUST be taken in plan
/// order. Binding is index arithmetic only — the planner's names are
/// verified against the kernel's take() order in debug builds and compiled
/// away in release, so no work-group pays a string comparison.
template <typename T>
class workspace_binder {
public:
    workspace_binder(xpu::group& g, const bound_plan& plan,
                     T* group_backing)
        : g_(g), plan_(plan), backing_(group_backing)
    {
        // With a poison fault armed on this group, narrow the strike's
        // spill target to this group's own backing slice — the default is
        // no spill region, so a strike never touches another group's
        // memory. Off the hot path: one branch when no fault is armed.
        if (g_.fault_armed()) {
            register_spill_region();
        }
    }

    /// Takes the next slot, which must correspond to the planner entry
    /// named `name` (kernels and the priority lists must agree exactly;
    /// checked in debug builds).
    xpu::dspan<T> take(const char* name)
    {
        BATCHLIN_ENSURE_MSG(
            next_ < plan_.size(),
            "kernel requested more workspace entries than planned");
        plan_.check_name(next_, name);
        const bound_plan::slot& s = plan_[next_];
        ++next_;
        if (s.in_slm) {
            return g_.slm().alloc<T>(static_cast<index_type>(s.elems));
        }
        xpu::dspan<T> out{backing_ + s.spill_offset,
                          static_cast<index_type>(s.elems),
                          xpu::mem_space::global};
#ifdef BATCHLIN_XPU_CHECK
        // Spill slots are tracked like SLM allocations: the backing is
        // never cleared, so every read-before-write is a real bug.
        if (xpu::check::group_checker* chk = g_.checker()) {
            out.tag = chk->register_global_region(
                s.elems * static_cast<size_type>(sizeof(T)));
        }
#endif
        return out;
    }

    /// Takes the trailing optional slot (the preconditioner workspace)
    /// when the plan has one; returns an empty span otherwise.
    xpu::dspan<T> take_optional(const char* name)
    {
        if (next_ < plan_.size()) {
            return take(name);
        }
        return {};
    }

private:
    void register_spill_region()
    {
        size_type elems = 0;
        for (index_type i = 0; i < plan_.size(); ++i) {
            const bound_plan::slot& s = plan_[i];
            if (!s.in_slm && s.spill_offset + s.elems > elems) {
                elems = s.spill_offset + s.elems;
            }
        }
        if (elems > 0) {
            g_.note_global_region(
                reinterpret_cast<std::byte*>(backing_),
                elems * static_cast<size_type>(sizeof(T)));
        }
    }

    xpu::group& g_;
    const bound_plan& plan_;
    T* backing_;
    index_type next_ = 0;
};

/// Non-owning view of a launch's spilled-workspace backing. This is what
/// the recordable kernels capture by value: two words, no lifetime of its
/// own, valid as long as the backing it points into (the queue's scratch
/// pool for eager launches, a `recorded_solve`'s owned buffer for graphs).
template <typename T>
struct spill_view {
    T* data = nullptr;
    size_type per_group = 0;

    T* for_group(index_type local_group) const
    {
        return data + static_cast<size_type>(local_group) * per_group;
    }
};

/// Spilled-workspace backing of one launch: a contiguous slice of
/// `plan.global_elems_per_group` per work-group, carved from the queue's
/// scratch pool so repeated solves reuse one allocation. The backing is
/// not cleared: the kernels write every spilled element before reading
/// it.
template <typename T>
struct spill_buffer {
    spill_buffer(xpu::queue& q, const slm_plan& plan, index_type num_groups)
        : per_group(plan.global_elems_per_group),
          data(reinterpret_cast<T*>(q.scratch().acquire(
              per_group * static_cast<size_type>(num_groups) * sizeof(T))))
    {}

    T* for_group(index_type local_group)
    {
        return data + static_cast<size_type>(local_group) * per_group;
    }

    spill_view<T> view() const { return {data, per_group}; }

    size_type per_group;
    T* data;
};

/// Copies the caller's guess into `x_loc` and forms r = b - A x. The copy
/// votes on the guess's bits in the same pass: a guess of all +0.0 skips
/// the SpMV and copies r from the constant b, because for finite A every
/// product a * (+0) is a signed zero, their sum is +0, and b - (+0) is b
/// bit for bit. Any other guess, -0.0 included, takes the SpMV. `shadow`,
/// when not empty, receives r as well (BiCGSTAB's frozen r_hat). Returns
/// true on the zero guess.
template <typename T, typename View>
bool guess_residual(xpu::group& g, const View& a, xpu::dspan<const T> b,
                    xpu::dspan<const T> x_guess, xpu::dspan<T> x_loc,
                    xpu::dspan<T> r, xpu::dspan<T> shadow,
                    xpu::reduce_path path)
{
    const bool zero_guess = blas::copy_is_zero<T>(g, x_guess, x_loc, path);
    if (zero_guess) {
        blas::copy<T>(g, b, r);
        if (!shadow.empty()) {
            blas::copy<T>(g, b, shadow);
        }
    } else {
        blas::spmv<T>(g, a, x_loc, r);
        blas::axpby<T>(g, T{1}, b, T{-1}, r);
        if (!shadow.empty()) {
            blas::copy<T>(g, r, shadow);
        }
    }
    return zero_guess;
}

/// ||b|| and ||r|| of a kernel's initial residual.
template <typename T>
struct initial_norms {
    T rhs;
    T res;
};

/// The prologue of CG, BiCGSTAB and Richardson: guess_residual, then ||b||
/// and ||r||. On the zero guess r is b, so ||r|| is ||b|| with no second
/// reduction.
template <typename T, typename View>
initial_norms<T> initial_residual(xpu::group& g, const View& a,
                                  xpu::dspan<const T> b,
                                  xpu::dspan<const T> x_guess,
                                  xpu::dspan<T> x_loc, xpu::dspan<T> r,
                                  xpu::dspan<T> shadow,
                                  xpu::reduce_path path)
{
    const bool zero_guess =
        guess_residual<T>(g, a, b, x_guess, x_loc, r, shadow, path);
    const T rhs = blas::nrm2<T>(g, b, path);
    return {rhs, zero_guess ? rhs : blas::nrm2<T>(g, r, path)};
}

/// Records one system's outcome: logger entry plus iteration counter.
template <typename T>
void record_outcome(xpu::group& g, log::batch_log& logger, index_type batch,
                    index_type iterations, T residual_norm,
                    log::solve_status status)
{
    logger.record(batch, iterations, static_cast<double>(residual_norm),
                  status);
    g.stats().total_iterations += static_cast<double>(iterations);
}

}  // namespace batchlin::solver
