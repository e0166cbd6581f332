// Per-system convergence logging (paper §3: "monitor the solver convergence
// for each system in the batch individually").
//
// Each work-group records its own iteration count, final (implicit)
// residual norm, and convergence flag; the host-side summary aggregates
// them for reporting and for the benchmark tables.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/math.hpp"

namespace batchlin::log {

/// Terminal state of one system's solve. Replaces the old converged bit:
/// a system that did not converge now says *why*, so recovery (the
/// `solver::solve_resilient` chain, `solve_coalesced`'s retries) can pick
/// the right remedy — breakdowns re-solve down the fallback chain,
/// `device_fault` retries, `max_iterations` is accuracy, not a fault.
enum class solve_status : std::uint8_t {
    /// The stop criterion was met (also: zero right-hand side, which is
    /// defined as immediately converged with x = 0).
    converged,
    /// Iteration budget exhausted without meeting the criterion.
    max_iterations,
    /// Lanczos/Krylov scalar rho collapsed to zero (CG/BiCGSTAB serious
    /// breakdown: the new residual is orthogonal to the shadow residual).
    breakdown_rho,
    /// BiCGSTAB stabilization scalar omega collapsed to zero; the update
    /// cannot proceed.
    breakdown_omega,
    /// The search direction was annihilated by the operator (p'Ap == 0 in
    /// CG: A is singular or indefinite along the current direction).
    direction_annihilated,
    /// A residual-norm recurrence produced NaN/Inf — workspace corruption
    /// or hopeless conditioning.
    non_finite,
    /// The device runtime faulted (injected or real); the result buffer
    /// for this system is not trustworthy.
    device_fault,
    /// Direct factorization hit a zero pivot: the matrix is singular to
    /// working precision.
    singular,
};

/// Human-readable status name for logs and error messages.
std::string to_string(solve_status status);

/// Result record of one batch solve, indexed by batch entry.
class batch_log {
public:
    batch_log() = default;
    explicit batch_log(index_type num_systems)
        : iterations_(num_systems, 0),
          residual_norms_(num_systems, 0.0),
          statuses_(num_systems, solve_status::max_iterations)
    {}

    index_type num_systems() const
    {
        return static_cast<index_type>(iterations_.size());
    }

    /// Called by the work-group solving system `batch` when it exits.
    void record(index_type batch, index_type iterations,
                double residual_norm, solve_status status)
    {
        iterations_[batch] = iterations;
        residual_norms_[batch] = residual_norm;
        statuses_[batch] = status;
    }

    index_type iterations(index_type batch) const
    {
        return iterations_[batch];
    }
    double residual_norm(index_type batch) const
    {
        return residual_norms_[batch];
    }
    solve_status status(index_type batch) const { return statuses_[batch]; }
    bool converged(index_type batch) const
    {
        return statuses_[batch] == solve_status::converged;
    }

    const std::vector<index_type>& all_iterations() const
    {
        return iterations_;
    }
    const std::vector<double>& all_residual_norms() const
    {
        return residual_norms_;
    }
    const std::vector<solve_status>& all_statuses() const
    {
        return statuses_;
    }

    index_type num_converged() const;
    /// Number of systems whose terminal state equals `status`.
    index_type count_status(solve_status status) const;
    index_type min_iterations() const;
    index_type max_iterations() const;
    double mean_iterations() const;
    double max_residual_norm() const;

    /// Enables per-iteration residual recording (off by default: the
    /// history costs num_systems x max_iters doubles).
    void enable_history(index_type max_iterations);
    bool history_enabled() const { return history_stride_ > 0; }

    /// Called by the solver kernel after iteration `iter` (0-based) of
    /// system `batch`; no-op unless history is enabled.
    void record_iteration(index_type batch, index_type iter,
                          double residual_norm)
    {
        if (history_stride_ > 0 && iter < history_stride_) {
            history_[static_cast<std::size_t>(batch) * history_stride_ +
                     iter] = residual_norm;
        }
    }

    /// Residual norm of system `batch` after iteration `iter`, or NaN when
    /// outside the recorded range.
    double residual_at(index_type batch, index_type iter) const;

    /// Geometric-mean per-iteration contraction factor of system `batch`
    /// estimated from the recorded history (a least-squares fit of the
    /// log-residual slope); NaN without history or with < 3 iterations.
    /// Values < 1 indicate convergence; smaller is faster.
    double convergence_rate(index_type batch) const;

private:
    std::vector<index_type> iterations_;
    std::vector<double> residual_norms_;
    std::vector<solve_status> statuses_;
    index_type history_stride_ = 0;
    std::vector<double> history_;
};

}  // namespace batchlin::log
