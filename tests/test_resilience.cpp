// Tests of the resilience layer: deterministic fault injection in xpu::,
// the per-system solve_status taxonomy (breakdown regressions on exact
// dyadic-rational matrices), the zero-rhs short circuit, the
// solve_resilient fallback chain, and the randomized fault soak the
// acceptance criteria pin down (>= 1000 solves, every system terminal,
// recovered systems re-verified against explicit residuals, and identical
// schedules for identical seeds).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "batchlin/batchlin.hpp"

namespace bl = batchlin;
using bl::index_type;
using bl::size_type;
namespace mat = batchlin::mat;
namespace precond = batchlin::precond;
namespace solver = batchlin::solver;
namespace stop = batchlin::stop;
namespace work = batchlin::work;
namespace xpu = batchlin::xpu;
using batchlin::log::solve_status;

namespace {

/// One batch item per row-major n x n value array, all sharing the full
/// dense sparsity pattern (explicit zeros included) so breakdown fixtures
/// can coexist with healthy systems in one batch_csr.
mat::batch_csr<double> dense_pattern_csr(
    index_type n, const std::vector<std::vector<double>>& items)
{
    std::vector<index_type> row_ptrs(static_cast<std::size_t>(n) + 1);
    std::vector<index_type> col_idxs(static_cast<std::size_t>(n * n));
    for (index_type r = 0; r <= n; ++r) {
        row_ptrs[static_cast<std::size_t>(r)] = r * n;
    }
    for (index_type r = 0; r < n; ++r) {
        for (index_type c = 0; c < n; ++c) {
            col_idxs[static_cast<std::size_t>(r * n + c)] = c;
        }
    }
    mat::batch_csr<double> a(static_cast<index_type>(items.size()), n, n,
                             row_ptrs, col_idxs);
    for (index_type i = 0; i < a.num_batch_items(); ++i) {
        const auto& vals = items[static_cast<std::size_t>(i)];
        std::copy(vals.begin(), vals.end(), a.item_values(i));
    }
    return a;
}

mat::batch_dense<double> rhs_from(const std::vector<double>& vals)
{
    mat::batch_dense<double> b(1, static_cast<index_type>(vals.size()), 1);
    std::copy(vals.begin(), vals.end(), b.item_values(0));
    return b;
}

solver::solve_result plain_solve(const solver::batch_matrix<double>& a,
                                 const mat::batch_dense<double>& b,
                                 mat::batch_dense<double>& x,
                                 const solver::solve_options& opts,
                                 xpu::fault_plan faults = {})
{
    xpu::exec_policy policy = xpu::make_sycl_policy();
    policy.faults = std::move(faults);
    xpu::queue q(policy);
    return solver::solve(q, a, b, x, opts);
}

std::vector<double> host_rhs_norms(const mat::batch_dense<double>& b)
{
    std::vector<double> norms(
        static_cast<std::size_t>(b.num_batch_items()));
    for (index_type i = 0; i < b.num_batch_items(); ++i) {
        double sum = 0.0;
        const double* vals = b.item_values(i);
        for (size_type k = 0; k < b.item_size(); ++k) {
            sum += vals[k] * vals[k];
        }
        norms[static_cast<std::size_t>(i)] = std::sqrt(sum);
    }
    return norms;
}

}  // namespace

// ---------------------------------------------------------------------
// Fault plans: deterministic schedules.
// ---------------------------------------------------------------------

TEST(FaultPlan, SameSeedSameSchedule)
{
    xpu::fault_schedule_config cfg;
    cfg.num_launches = 32;
    cfg.num_groups = 8;
    cfg.fault_rate = 0.5;
    cfg.max_phase = 12;
    const xpu::fault_plan a = xpu::random_fault_plan(42, cfg);
    const xpu::fault_plan b = xpu::random_fault_plan(42, cfg);
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.empty());
    // Every event stays inside the configured ranges.
    for (const xpu::fault_event& ev : a.events) {
        EXPECT_LT(ev.launch, cfg.num_launches);
        EXPECT_GE(ev.group, 0);
        EXPECT_LT(ev.group, cfg.num_groups);
        EXPECT_GE(ev.phase, 0);
        EXPECT_LE(ev.phase, cfg.max_phase);
    }
}

TEST(FaultPlan, DistinctSeedsDecorrelate)
{
    const xpu::fault_schedule_config cfg;
    EXPECT_NE(xpu::random_fault_plan(1, cfg).events,
              xpu::random_fault_plan(2, cfg).events);
}

TEST(FaultPlan, ToStringCoversEveryEnumerator)
{
    EXPECT_EQ(xpu::to_string(xpu::fault_kind::launch_fail), "launch_fail");
    EXPECT_EQ(xpu::to_string(xpu::fault_kind::alloc_fail), "alloc_fail");
    EXPECT_EQ(xpu::to_string(xpu::fault_kind::poison), "poison");
    EXPECT_EQ(xpu::to_string(xpu::fault_target::slm), "slm");
    EXPECT_EQ(xpu::to_string(xpu::fault_target::spill), "spill");
    EXPECT_EQ(xpu::to_string(xpu::poison_mode::nan), "nan");
    EXPECT_EQ(xpu::to_string(xpu::poison_mode::bitflip), "bitflip");
}

// ---------------------------------------------------------------------
// Fault-injection fixtures (mirroring the test_xpu_check fixture style:
// each fixture schedules exactly one fault class and asserts its exact
// observable effect).
// ---------------------------------------------------------------------

namespace {

struct fault_fixture {
    solver::batch_matrix<double> a;
    mat::batch_dense<double> b;
    solver::solve_options opts;

    fault_fixture()
        : a(work::stencil_3pt<double>(4, 16, 3)),
          b(work::random_rhs<double>(4, 16, 5))
    {
        opts.solver = solver::solver_type::cg;
        opts.preconditioner = precond::type::jacobi;
        opts.criterion = stop::relative(1e-10, 200);
    }

    mat::batch_dense<double> fresh_x() const
    {
        return mat::batch_dense<double>(4, 16, 1);
    }
};

}  // namespace

TEST(FaultFixtures, LaunchFailThrowsDeviceErrorThenClears)
{
    fault_fixture fx;
    xpu::exec_policy policy = xpu::make_sycl_policy();
    policy.faults.events.push_back(
        {xpu::fault_kind::launch_fail, 0, 0, 1, xpu::fault_target::slm,
         xpu::poison_mode::nan});
    xpu::queue q(policy);
    mat::batch_dense<double> x = fx.fresh_x();
    EXPECT_THROW(solver::solve(q, fx.a, fx.b, x, fx.opts),
                 xpu::device_error);
    // The failed launch still consumed a launch id, so the identical
    // retry is a fresh launch the schedule no longer matches.
    EXPECT_EQ(q.launches_submitted(), 1u);
    const solver::solve_result result =
        solver::solve(q, fx.a, fx.b, x, fx.opts);
    EXPECT_EQ(result.log.num_converged(), 4);
    EXPECT_EQ(q.launches_submitted(), 2u);
}

TEST(FaultFixtures, DeviceErrorIsCatchableAsBatchlinError)
{
    // Recovery layers catch device_error specifically; everything else
    // still sees it as the library error type.
    fault_fixture fx;
    xpu::exec_policy policy = xpu::make_sycl_policy();
    policy.faults.events.push_back(
        {xpu::fault_kind::launch_fail, 0, 0, 1, xpu::fault_target::slm,
         xpu::poison_mode::nan});
    xpu::queue q(policy);
    mat::batch_dense<double> x = fx.fresh_x();
    EXPECT_THROW(solver::solve(q, fx.a, fx.b, x, fx.opts), bl::error);
}

TEST(FaultFixtures, AllocFailThrowsDeviceErrorThenClears)
{
    fault_fixture fx;
    xpu::exec_policy policy = xpu::make_sycl_policy();
    // First SLM allocation of group 2 throws mid-kernel.
    policy.faults.events.push_back(
        {xpu::fault_kind::alloc_fail, 0, 2, 0, xpu::fault_target::slm,
         xpu::poison_mode::nan});
    xpu::queue q(policy);
    mat::batch_dense<double> x = fx.fresh_x();
    EXPECT_THROW(solver::solve(q, fx.a, fx.b, x, fx.opts),
                 xpu::device_error);
    const solver::solve_result result =
        solver::solve(q, fx.a, fx.b, x, fx.opts);
    EXPECT_EQ(result.log.num_converged(), 4);
}

TEST(FaultFixtures, NanPoisonDrivesTargetedSystemNonFinite)
{
    // Sweep the strike phase: a NaN strike that lands on live workspace
    // must surface as `non_finite` on exactly the targeted system, and
    // systems the event does not target must be untouched at every phase.
    fault_fixture fx;
    bool saw_non_finite = false;
    for (index_type phase = 2; phase <= 12; ++phase) {
        mat::batch_dense<double> x = fx.fresh_x();
        xpu::fault_plan plan;
        plan.events.push_back(
            {xpu::fault_kind::poison, 0, 1, phase, xpu::fault_target::slm,
             xpu::poison_mode::nan});
        const solver::solve_result result =
            plain_solve(fx.a, fx.b, x, fx.opts, plan);
        const solve_status hit = result.log.status(1);
        EXPECT_TRUE(hit == solve_status::non_finite ||
                    hit == solve_status::converged)
            << "phase " << phase << ": " << bl::log::to_string(hit);
        saw_non_finite |= hit == solve_status::non_finite;
        for (const index_type healthy : {0, 2, 3}) {
            EXPECT_EQ(result.log.status(healthy), solve_status::converged)
                << "phase " << phase << " system " << healthy;
        }
    }
    EXPECT_TRUE(saw_non_finite)
        << "no phase in [2, 12] corrupted live CG workspace";
}

TEST(FaultFixtures, PoisonStrikeIsDeterministic)
{
    fault_fixture fx;
    xpu::fault_plan plan;
    plan.events.push_back({xpu::fault_kind::poison, 0, 1, 6,
                           xpu::fault_target::slm, xpu::poison_mode::nan});
    mat::batch_dense<double> x1 = fx.fresh_x();
    mat::batch_dense<double> x2 = fx.fresh_x();
    const solver::solve_result r1 = plain_solve(fx.a, fx.b, x1, fx.opts, plan);
    const solver::solve_result r2 = plain_solve(fx.a, fx.b, x2, fx.opts, plan);
    EXPECT_EQ(r1.log.all_statuses(), r2.log.all_statuses());
    EXPECT_EQ(r1.log.all_iterations(), r2.log.all_iterations());
    for (index_type i = 0; i < 4; ++i) {
        EXPECT_EQ(0, std::memcmp(x1.item_values(i), x2.item_values(i),
                                 x1.item_size() * sizeof(double)))
            << "system " << i << " diverged between identical runs";
    }
}

TEST(FaultFixtures, SpillPoisonHitsOnlyTheTargetedGroupsSlice)
{
    // A tiny SLM budget forces the planner to spill; the spill strike is
    // confined to the targeted group's own slice of the backing.
    fault_fixture fx;
    xpu::exec_policy policy = xpu::make_sycl_policy(1, 512);
    bool saw_non_finite = false;
    for (index_type phase = 2; phase <= 12; ++phase) {
        xpu::exec_policy faulted = policy;
        faulted.faults.events.push_back(
            {xpu::fault_kind::poison, 0, 1, phase, xpu::fault_target::spill,
             xpu::poison_mode::nan});
        xpu::queue q(faulted);
        mat::batch_dense<double> x = fx.fresh_x();
        const solver::solve_result result =
            solver::solve(q, fx.a, fx.b, x, fx.opts);
        saw_non_finite |= result.log.status(1) == solve_status::non_finite;
        for (const index_type healthy : {0, 2, 3}) {
            EXPECT_EQ(result.log.status(healthy), solve_status::converged)
                << "phase " << phase << " system " << healthy;
        }
    }
    EXPECT_TRUE(saw_non_finite)
        << "no spill strike in [2, 12] corrupted live workspace";
}

TEST(FaultFixtures, BitflipStaysFiniteAndDeterministic)
{
    // A bit flip is silent corruption: the run must stay finite-looking
    // (no status other than converged/max_iterations expected on this
    // well-conditioned batch) and bit-identical across repeats; catching
    // a wrong-but-finite result is the resilient verifier's job, tested
    // below.
    fault_fixture fx;
    xpu::fault_plan plan;
    plan.events.push_back({xpu::fault_kind::poison, 0, 2, 5,
                           xpu::fault_target::slm,
                           xpu::poison_mode::bitflip});
    mat::batch_dense<double> x1 = fx.fresh_x();
    mat::batch_dense<double> x2 = fx.fresh_x();
    const solver::solve_result r1 = plain_solve(fx.a, fx.b, x1, fx.opts, plan);
    const solver::solve_result r2 = plain_solve(fx.a, fx.b, x2, fx.opts, plan);
    EXPECT_EQ(r1.log.all_statuses(), r2.log.all_statuses());
    for (index_type i = 0; i < 4; ++i) {
        EXPECT_EQ(0, std::memcmp(x1.item_values(i), x2.item_values(i),
                                 x1.item_size() * sizeof(double)));
    }
}

TEST(FaultFixtures, EmptyPlanLeavesResultsBitIdentical)
{
    // The no-fault contract: a default (empty) plan must not perturb the
    // solve in any observable way.
    fault_fixture fx;
    mat::batch_dense<double> x1 = fx.fresh_x();
    mat::batch_dense<double> x2 = fx.fresh_x();
    const solver::solve_result r1 = plain_solve(fx.a, fx.b, x1, fx.opts);
    const solver::solve_result r2 =
        plain_solve(fx.a, fx.b, x2, fx.opts, xpu::fault_plan{});
    EXPECT_EQ(r1.log.all_statuses(), r2.log.all_statuses());
    for (index_type i = 0; i < 4; ++i) {
        EXPECT_EQ(0, std::memcmp(x1.item_values(i), x2.item_values(i),
                                 x1.item_size() * sizeof(double)));
    }
}

// ---------------------------------------------------------------------
// Breakdown taxonomy regressions on exact dyadic-rational fixtures. All
// arithmetic below is exact in binary floating point, so the breakdown
// scalars hit 0.0 exactly and the statuses are deterministic.
// ---------------------------------------------------------------------

TEST(BreakdownTaxonomy, CgDirectionAnnihilatedOnIndefiniteMatrix)
{
    // A = diag(1, -1), b = [1, 1]: p0 = b, A p0 = [1, -1], p'Ap = 0.
    const auto a = dense_pattern_csr(2, {{1, 0, 0, -1}});
    const auto b = rhs_from({1, 1});
    mat::batch_dense<double> x(1, 2, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::cg;
    opts.criterion = stop::relative(1e-12, 10);
    const solver::solve_result result = plain_solve(a, b, x, opts);
    EXPECT_EQ(result.log.status(0), solve_status::direction_annihilated);
    EXPECT_EQ(result.log.iterations(0), 0);
}

TEST(BreakdownTaxonomy, CgBreakdownRhoUnderJacobi)
{
    // A = [[1, 2], [2, -1]] with Jacobi: z0 = r0 / diag = [1, -1], so
    // rho0 = r0'z0 = 0 while p'Ap = -4 stays nonzero — the breakdown is
    // in the rho recurrence, not the search direction.
    const auto a = dense_pattern_csr(2, {{1, 2, 2, -1}});
    const auto b = rhs_from({1, 1});
    mat::batch_dense<double> x(1, 2, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::cg;
    opts.preconditioner = precond::type::jacobi;
    opts.criterion = stop::relative(1e-12, 10);
    const solver::solve_result result = plain_solve(a, b, x, opts);
    EXPECT_EQ(result.log.status(0), solve_status::breakdown_rho);
}

TEST(BreakdownTaxonomy, BicgstabBreakdownRhoWithNonzeroOmega)
{
    // After one exact BiCGSTAB step on this system, r1 = [0, -1/2, 1/2]
    // is orthogonal to r_hat = e1 while omega = 1/2 != 0: a genuine
    // shadow-residual breakdown that must NOT be labeled breakdown_omega.
    const auto a = dense_pattern_csr(3, {{1, 0, 2, 1, 1, 0, 0, 1, 1}});
    const auto b = rhs_from({1, 0, 0});
    mat::batch_dense<double> x(1, 3, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::bicgstab;
    opts.criterion = stop::relative(1e-12, 10);
    const solver::solve_result result = plain_solve(a, b, x, opts);
    EXPECT_EQ(result.log.status(0), solve_status::breakdown_rho);
    EXPECT_EQ(result.log.iterations(0), 1);
}

TEST(BreakdownTaxonomy, BicgstabOmegaBreakdownIsNotMislabeledAsRho)
{
    // Regression for the silent mislabel: here t's0 = 0 makes omega = 0
    // at iteration 1, which ALSO zeroes the next rho_new — the loop-top
    // check order must report breakdown_omega, not breakdown_rho.
    const auto a = dense_pattern_csr(3, {{1, 1, 0, 1, 0, 1, 0, 1, 1}});
    const auto b = rhs_from({1, 0, 0});
    mat::batch_dense<double> x(1, 3, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::bicgstab;
    opts.criterion = stop::relative(1e-12, 10);
    const solver::solve_result result = plain_solve(a, b, x, opts);
    EXPECT_EQ(result.log.status(0), solve_status::breakdown_omega);
}

TEST(BreakdownTaxonomy, HealthySystemInSameBatchIsUnaffected)
{
    // A breakdown fixture and a healthy SPD system share one batch: the
    // per-system taxonomy must keep them apart.
    const auto a = dense_pattern_csr(2, {{1, 0, 0, -1}, {4, 1, 1, 3}});
    mat::batch_dense<double> b(2, 2, 1);
    b.item_values(0)[0] = 1.0;
    b.item_values(0)[1] = 1.0;
    b.item_values(1)[0] = 1.0;
    b.item_values(1)[1] = 2.0;
    mat::batch_dense<double> x(2, 2, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::cg;
    opts.criterion = stop::relative(1e-12, 50);
    const solver::solve_result result = plain_solve(a, b, x, opts);
    EXPECT_EQ(result.log.status(0), solve_status::direction_annihilated);
    EXPECT_EQ(result.log.status(1), solve_status::converged);
}

TEST(BreakdownTaxonomy, StatusTaxonomyRoundTripsThroughSplitLog)
{
    const auto a = dense_pattern_csr(2, {{1, 0, 0, -1}, {4, 1, 1, 3}});
    mat::batch_dense<double> b(2, 2, 1);
    b.item_values(0)[0] = 1.0;
    b.item_values(0)[1] = 1.0;
    b.item_values(1)[0] = 1.0;
    b.item_values(1)[1] = 2.0;
    mat::batch_dense<double> x(2, 2, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::cg;
    opts.criterion = stop::relative(1e-12, 50);
    const solver::solve_result result = plain_solve(a, b, x, opts);
    const bl::log::batch_log head = solver::split_log(result.log, 0, 1);
    const bl::log::batch_log tail = solver::split_log(result.log, 1, 1);
    EXPECT_EQ(head.status(0), solve_status::direction_annihilated);
    EXPECT_EQ(tail.status(0), solve_status::converged);
}

// ---------------------------------------------------------------------
// Zero right-hand side: defined as immediately converged with x = 0.
// ---------------------------------------------------------------------

TEST(ZeroRhs, EverySolverShortCircuitsToExactZero)
{
    const index_type items = 2;
    const index_type rows = 16;
    const solver::batch_matrix<double> a =
        work::stencil_3pt<double>(items, rows, 3);
    mat::batch_dense<double> b(items, rows, 1);  // all-zero rhs
    for (const auto s :
         {solver::solver_type::cg, solver::solver_type::bicgstab,
          solver::solver_type::gmres, solver::solver_type::richardson}) {
        mat::batch_dense<double> x(items, rows, 1);
        for (index_type i = 0; i < items; ++i) {
            std::fill_n(x.item_values(i), x.item_size(), 7.0);
        }
        solver::solve_options opts;
        opts.solver = s;
        opts.preconditioner = precond::type::jacobi;
        opts.criterion = stop::relative(1e-10, 50);
        const solver::solve_result result = plain_solve(a, b, x, opts);
        for (index_type i = 0; i < items; ++i) {
            EXPECT_EQ(result.log.status(i), solve_status::converged)
                << solver::to_string(s);
            EXPECT_EQ(result.log.iterations(i), 0) << solver::to_string(s);
            EXPECT_EQ(result.log.residual_norm(i), 0.0)
                << solver::to_string(s);
            for (size_type k = 0; k < x.item_size(); ++k) {
                ASSERT_EQ(x.item_values(i)[k], 0.0)
                    << solver::to_string(s) << " left a nonzero iterate";
            }
        }
    }
}

TEST(ZeroRhs, AbsoluteToleranceDoesNotShortCircuit)
{
    // ||r|| <= tol is satisfiable with b = 0 the ordinary way; the
    // short circuit applies only to the relative criterion.
    EXPECT_FALSE(stop::zero_rhs_short_circuit(stop::absolute(1e-8), 0.0));
    EXPECT_TRUE(stop::zero_rhs_short_circuit(stop::relative(1e-8), 0.0));
    EXPECT_FALSE(stop::zero_rhs_short_circuit(stop::relative(1e-8), 0.5));
}

// ---------------------------------------------------------------------
// solve_resilient: fallback-chain recovery.
// ---------------------------------------------------------------------

TEST(Resilient, HealthyBatchConvergesFirstTry)
{
    const index_type items = 6;
    const index_type rows = 16;
    const solver::batch_matrix<double> a =
        work::stencil_3pt<double>(items, rows, 2);
    const auto b = work::random_rhs<double>(items, rows, 4);
    mat::batch_dense<double> x(items, rows, 1);
    solver::solve_options primary;
    primary.solver = solver::solver_type::cg;
    primary.preconditioner = precond::type::jacobi;
    primary.criterion = stop::relative(1e-8, 200);

    xpu::queue q(xpu::make_sycl_policy());
    const solver::resilient_result result = solver::solve_resilient(
        q, a, b, x, solver::default_chain(primary));
    EXPECT_EQ(result.first_try, items);
    EXPECT_EQ(result.recovered, 0);
    EXPECT_EQ(result.failed, 0);
    EXPECT_EQ(result.launch_retries_used, 0);
    for (index_type i = 0; i < items; ++i) {
        EXPECT_EQ(result.history[static_cast<std::size_t>(i)].size(), 1u);
        EXPECT_EQ(result.log.status(i), solve_status::converged);
    }
    // Exactly one launch: the healthy path never enters the chain.
    EXPECT_EQ(q.launches_submitted(), 1u);
}

TEST(Resilient, BreakdownSystemRecoversDownTheChain)
{
    // Item 0 breaks CG down (indefinite diagonal); item 1 is healthy SPD.
    const solver::batch_matrix<double> a =
        dense_pattern_csr(2, {{1, 0, 0, -1}, {4, 1, 1, 3}});
    mat::batch_dense<double> b(2, 2, 1);
    b.item_values(0)[0] = 1.0;
    b.item_values(0)[1] = 1.0;
    b.item_values(1)[0] = 1.0;
    b.item_values(1)[1] = 2.0;
    mat::batch_dense<double> x(2, 2, 1);
    solver::solve_options primary;
    primary.solver = solver::solver_type::cg;
    primary.criterion = stop::relative(1e-10, 50);

    xpu::queue q(xpu::make_sycl_policy());
    const solver::resilient_result result = solver::solve_resilient(
        q, a, b, x, solver::default_chain(primary));
    EXPECT_EQ(result.first_try, 1);
    EXPECT_EQ(result.recovered, 1);
    EXPECT_EQ(result.failed, 0);
    EXPECT_EQ(result.log.status(0), solve_status::converged);
    EXPECT_EQ(result.log.status(1), solve_status::converged);
    // The recovered system carries its full attempt history: the primary
    // breakdown plus every chain stage it went through.
    EXPECT_GE(result.history[0].size(), 2u);
    EXPECT_EQ(result.history[0].front().status,
              solve_status::direction_annihilated);
    EXPECT_EQ(result.history[0].back().status, solve_status::converged);
    EXPECT_EQ(result.history[1].size(), 1u);
    // diag(1, -1) x = [1, 1] has the exact solution [1, -1].
    EXPECT_NEAR(x.item_values(0)[0], 1.0, 1e-8);
    EXPECT_NEAR(x.item_values(0)[1], -1.0, 1e-8);
}

TEST(Resilient, Fp32StorageBatchRecoversDownTheChain)
{
    // The breakdown fixture above at fp32 storage (its values are exact in
    // fp32): the chain gathers the live fp32 values, and the direct stage
    // widens its copy before LU.
    solver::batch_matrix<double> a =
        dense_pattern_csr(2, {{1, 0, 0, -1}, {4, 1, 1, 3}});
    solver::set_storage(a, mat::storage_precision::fp32);
    mat::batch_dense<double> b(2, 2, 1);
    b.item_values(0)[0] = 1.0;
    b.item_values(0)[1] = 1.0;
    b.item_values(1)[0] = 1.0;
    b.item_values(1)[1] = 2.0;
    mat::batch_dense<double> x(2, 2, 1);
    solver::solve_options primary;
    primary.solver = solver::solver_type::cg;
    primary.criterion = stop::relative(1e-10, 50);

    xpu::queue q(xpu::make_sycl_policy());
    const solver::resilient_result result = solver::solve_resilient(
        q, a, b, x, solver::default_chain(primary));
    EXPECT_EQ(result.first_try, 1);
    EXPECT_EQ(result.recovered, 1);
    EXPECT_EQ(result.failed, 0);
    EXPECT_EQ(result.stats.kernel_launches,
              static_cast<std::int64_t>(q.launches_submitted()));
    EXPECT_NEAR(x.item_values(0)[0], 1.0, 1e-8);
    EXPECT_NEAR(x.item_values(0)[1], -1.0, 1e-8);

    // Straight from the primary to the direct stage: LU runs on a widened
    // copy, and both of its launches are counted.
    solver::resilient_options to_lu;
    to_lu.chain = {{primary, false}, {primary, true}};
    mat::batch_dense<double> x_lu(2, 2, 1);
    xpu::queue q_lu(xpu::make_sycl_policy());
    const solver::resilient_result lu =
        solver::solve_resilient(q_lu, a, b, x_lu, to_lu);
    EXPECT_EQ(lu.recovered, 1);
    EXPECT_EQ(lu.failed, 0);
    EXPECT_EQ(lu.history[0].back().stage, 1);
    EXPECT_EQ(lu.stats.kernel_launches,
              static_cast<std::int64_t>(q_lu.launches_submitted()));
    EXPECT_EQ(x_lu.item_values(0)[0], 1.0);
    EXPECT_EQ(x_lu.item_values(0)[1], -1.0);
}

TEST(Resilient, SingularSystemEndsWithSingularStatus)
{
    // Rank-1 A with inconsistent b: no stage can converge; the terminal
    // direct stage must label it `singular`, and the healthy companion
    // must be untouched by the repeated re-solves.
    const solver::batch_matrix<double> a =
        dense_pattern_csr(2, {{1, 1, 1, 1}, {4, 1, 1, 3}});
    mat::batch_dense<double> b(2, 2, 1);
    b.item_values(0)[0] = 1.0;
    b.item_values(0)[1] = 0.0;
    b.item_values(1)[0] = 1.0;
    b.item_values(1)[1] = 2.0;
    mat::batch_dense<double> x(2, 2, 1);
    solver::solve_options primary;
    primary.solver = solver::solver_type::cg;
    primary.criterion = stop::relative(1e-10, 40);

    xpu::queue q(xpu::make_sycl_policy());
    const solver::resilient_result result = solver::solve_resilient(
        q, a, b, x, solver::default_chain(primary));
    EXPECT_EQ(result.failed, 1);
    EXPECT_EQ(result.log.status(0), solve_status::singular);
    EXPECT_EQ(result.log.status(1), solve_status::converged);
    // All four stages ran the singular system; none claimed success.
    EXPECT_EQ(result.history[0].size(), 4u);
    for (const solver::attempt_record& rec : result.history[0]) {
        EXPECT_NE(rec.status, solve_status::converged);
    }
}

TEST(Resilient, LaunchFaultIsRetriedTransparently)
{
    const index_type items = 4;
    const index_type rows = 16;
    const solver::batch_matrix<double> a =
        work::stencil_3pt<double>(items, rows, 6);
    const auto b = work::random_rhs<double>(items, rows, 7);
    mat::batch_dense<double> x(items, rows, 1);
    solver::solve_options primary;
    primary.solver = solver::solver_type::cg;
    primary.preconditioner = precond::type::jacobi;
    primary.criterion = stop::relative(1e-8, 200);

    xpu::exec_policy policy = xpu::make_sycl_policy();
    policy.faults.events.push_back(
        {xpu::fault_kind::launch_fail, 0, 0, 1, xpu::fault_target::slm,
         xpu::poison_mode::nan});
    xpu::queue q(policy);
    const solver::resilient_result result = solver::solve_resilient(
        q, a, b, x, solver::default_chain(primary));
    EXPECT_EQ(result.first_try, items);
    EXPECT_EQ(result.failed, 0);
    EXPECT_EQ(result.launch_retries_used, 1);
}

TEST(Resilient, ExhaustedRetriesMarkEverySystemDeviceFault)
{
    const index_type items = 3;
    const index_type rows = 16;
    const solver::batch_matrix<double> a =
        work::stencil_3pt<double>(items, rows, 6);
    const auto b = work::random_rhs<double>(items, rows, 7);
    mat::batch_dense<double> x(items, rows, 1);
    solver::solve_options primary;
    primary.solver = solver::solver_type::cg;
    primary.criterion = stop::relative(1e-8, 200);

    // Single-stage chain, one retry, faults on every launch it may try.
    solver::resilient_options opts;
    opts.chain.push_back({primary, false});
    opts.launch_retries = 1;
    xpu::exec_policy policy = xpu::make_sycl_policy();
    for (std::uint64_t launch = 0; launch < 4; ++launch) {
        policy.faults.events.push_back(
            {xpu::fault_kind::launch_fail, launch, 0, 1,
             xpu::fault_target::slm, xpu::poison_mode::nan});
    }
    xpu::queue q(policy);
    const solver::resilient_result result =
        solver::solve_resilient(q, a, b, x, opts);
    EXPECT_EQ(result.failed, items);
    for (index_type i = 0; i < items; ++i) {
        EXPECT_EQ(result.log.status(i), solve_status::device_fault);
    }
}

TEST(Resilient, VerifierCatchesSilentBitflipCorruption)
{
    // End-to-end guarantee against silent finite corruption: under any
    // bitflip strike, a system the final log reports `converged` must
    // actually satisfy the (slackened) stop criterion on the explicit
    // residual — the verifier demotes and re-solves everything else.
    const index_type items = 4;
    const index_type rows = 16;
    const solver::batch_matrix<double> a =
        work::stencil_3pt<double>(items, rows, 9);
    const auto b = work::random_rhs<double>(items, rows, 10);
    solver::solve_options primary;
    primary.solver = solver::solver_type::cg;
    primary.preconditioner = precond::type::jacobi;
    primary.criterion = stop::relative(1e-8, 200);
    const auto rhs_norms = host_rhs_norms(b);

    for (index_type phase = 2; phase <= 10; ++phase) {
        mat::batch_dense<double> x(items, rows, 1);
        xpu::exec_policy policy = xpu::make_sycl_policy();
        policy.faults.events.push_back(
            {xpu::fault_kind::poison, 0, 2, phase, xpu::fault_target::slm,
             xpu::poison_mode::bitflip});
        xpu::queue q(policy);
        const solver::resilient_options opts =
            solver::default_chain(primary);
        const solver::resilient_result result =
            solver::solve_resilient(q, a, b, x, opts);
        const std::vector<double> explicit_res =
            solver::residual_norms(a, b, x);
        for (index_type i = 0; i < items; ++i) {
            ASSERT_EQ(result.log.status(i), solve_status::converged)
                << "phase " << phase;
            const double target = primary.criterion.tolerance *
                                  rhs_norms[static_cast<std::size_t>(i)] *
                                  solver::verify_slack;
            ASSERT_LE(explicit_res[static_cast<std::size_t>(i)], target)
                << "phase " << phase << " system " << i
                << " claims convergence with a bad explicit residual";
        }
    }
}

TEST(Resilient, EmptyChainIsRejected)
{
    const solver::batch_matrix<double> a =
        work::stencil_3pt<double>(1, 8, 1);
    const auto b = work::random_rhs<double>(1, 8, 2);
    mat::batch_dense<double> x(1, 8, 1);
    xpu::queue q(xpu::make_sycl_policy());
    EXPECT_THROW(
        solver::solve_resilient(q, a, b, x, solver::resilient_options{}),
        bl::error);
}

TEST(Resilient, DefaultChainShape)
{
    solver::solve_options primary;
    primary.solver = solver::solver_type::cg;
    primary.criterion = stop::relative(1e-8, 100);
    const solver::resilient_options opts = solver::default_chain(primary);
    ASSERT_EQ(opts.chain.size(), 4u);
    EXPECT_EQ(opts.chain[0].opts.solver, solver::solver_type::cg);
    EXPECT_FALSE(opts.chain[0].direct);
    EXPECT_EQ(opts.chain[1].opts.solver, solver::solver_type::bicgstab);
    EXPECT_GE(opts.chain[1].opts.criterion.max_iterations, 200);
    EXPECT_EQ(opts.chain[2].opts.solver, solver::solver_type::gmres);
    EXPECT_GE(opts.chain[2].opts.gmres_restart, 30);
    EXPECT_TRUE(opts.chain[3].direct);
}

// ---------------------------------------------------------------------
// Singular / indefinite sweep across the solver x preconditioner grid:
// no cell may claim convergence on an inconsistent singular system, and
// any non-finite recurrence must be labeled as such.
// ---------------------------------------------------------------------

TEST(SingularSweep, NoSolverClaimsConvergenceOnInconsistentSystem)
{
    const auto a = dense_pattern_csr(
        4, {{1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 2, 1, 0, 0, 1, 2}});
    const auto b = rhs_from({1, 0, 1, 1});
    for (const auto s :
         {solver::solver_type::cg, solver::solver_type::bicgstab,
          solver::solver_type::gmres, solver::solver_type::richardson}) {
        // ISAI is excluded: its generation throws host-side on singular
        // local systems before any kernel runs.
        for (const auto pc : {precond::type::none, precond::type::jacobi}) {
            mat::batch_dense<double> x(1, 4, 1);
            solver::solve_options opts;
            opts.solver = s;
            opts.preconditioner = pc;
            opts.gmres_restart = 4;
            opts.criterion = stop::relative(1e-12, 30);
            const solver::solve_result result = plain_solve(a, b, x, opts);
            const solve_status status = result.log.status(0);
            EXPECT_NE(status, solve_status::converged)
                << solver::to_string(s) << "/" << precond::to_string(pc);
            if (!std::isfinite(result.log.residual_norm(0))) {
                EXPECT_EQ(status, solve_status::non_finite)
                    << solver::to_string(s) << "/" << precond::to_string(pc)
                    << " hid a non-finite residual behind "
                    << bl::log::to_string(status);
            }
        }
    }
}

TEST(SingularSweep, DirectSolverReportsSingular)
{
    const auto a = dense_pattern_csr(2, {{1, 1, 1, 1}});
    const auto b = rhs_from({1, 0});
    mat::batch_dense<double> x(1, 2, 1);
    bl::log::batch_log logger(1);
    xpu::queue q(xpu::make_sycl_policy());
    solver::run_dense_lu(q, std::get<mat::batch_csr<double>>(
                                solver::batch_matrix<double>(a)),
                         b, x, logger, {0, 1});
    EXPECT_EQ(logger.status(0), solve_status::singular);
    EXPECT_EQ(logger.num_converged(), 0);
    EXPECT_EQ(logger.count_status(solve_status::singular), 1);
}

// ---------------------------------------------------------------------
// Randomized fault soak (acceptance criterion): >= 1000 resilient solves
// under randomized-but-deterministic schedules. Every system must end in
// a terminal status, every claimed convergence must hold up against the
// explicit residual, and the same seed must replay the same schedule.
// ---------------------------------------------------------------------

TEST(FaultSoak, ThousandSolvesUnderRandomizedSchedules)
{
    const index_type items = 18;
    const index_type rows = 16;
    xpu::fault_schedule_config cfg;
    cfg.num_launches = 10;
    cfg.num_groups = items;
    cfg.fault_rate = 0.4;
    cfg.max_phase = 16;

    solver::solve_options primary;
    primary.solver = solver::solver_type::cg;
    primary.preconditioner = precond::type::jacobi;
    primary.criterion = stop::relative(1e-8, 150);

    index_type total_systems = 0;
    index_type total_recovered = 0;
    index_type total_failed = 0;
    for (unsigned trial = 0; trial < 60; ++trial) {
        const unsigned seed = 1000 + 17 * trial;
        const xpu::fault_plan plan = xpu::random_fault_plan(seed, cfg);
        // Same seed => identical schedule, the reproducibility contract.
        ASSERT_EQ(plan, xpu::random_fault_plan(seed, cfg));

        const solver::batch_matrix<double> a =
            work::stencil_3pt<double>(items, rows, trial + 1);
        const auto b = work::random_rhs<double>(items, rows, trial + 101);
        mat::batch_dense<double> x(items, rows, 1);

        xpu::exec_policy policy = xpu::make_sycl_policy();
        policy.faults = plan;
        xpu::queue q(policy);
        const solver::resilient_options opts =
            solver::default_chain(primary);
        const solver::resilient_result result =
            solver::solve_resilient(q, a, b, x, opts);

        total_systems += items;
        total_recovered += result.recovered;
        total_failed += result.failed;
        // Terminal accounting: every system is exactly one of first-try
        // healthy, recovered, or failed, and carries a non-empty history.
        ASSERT_EQ(result.first_try + result.recovered + result.failed,
                  items);
        for (index_type i = 0; i < items; ++i) {
            ASSERT_FALSE(
                result.history[static_cast<std::size_t>(i)].empty());
        }

        const std::vector<double> explicit_res =
            solver::residual_norms(a, b, x);
        const std::vector<double> rhs_norms = host_rhs_norms(b);
        for (index_type i = 0; i < items; ++i) {
            const std::size_t si = static_cast<std::size_t>(i);
            if (result.log.status(i) == solve_status::converged) {
                ASSERT_LE(explicit_res[si],
                          primary.criterion.tolerance * rhs_norms[si] *
                              solver::verify_slack)
                    << "trial " << trial << " system " << i;
            } else {
                // A failed system must say why, and "failed" never means
                // an unexplained max_iterations on this easy spectrum.
                ASSERT_NE(result.log.status(i), solve_status::converged);
            }
        }
    }
    EXPECT_GE(total_systems, 1000);
    // The schedules are dense enough that recovery work actually ran.
    EXPECT_GT(total_recovered + total_failed, 0)
        << "the soak never injected an effective fault";
    RecordProperty("soak_systems", total_systems);
    RecordProperty("soak_recovered", total_recovered);
    RecordProperty("soak_failed", total_failed);
}
