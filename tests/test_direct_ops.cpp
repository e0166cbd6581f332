// Tests for the batched direct-solver baselines (Thomas, dense LU), the
// host-level batched apply operations, the equilibration scaling, and the
// per-iteration residual history.
#include <gtest/gtest.h>

#include <cmath>

#include "matrix/conversions.hpp"
#include "matrix/operations.hpp"
#include "solver/direct.hpp"
#include "solver/dispatch.hpp"
#include "solver/residual.hpp"
#include "util/error.hpp"
#include "workload/chemistry.hpp"
#include "workload/stencil.hpp"

namespace bl = batchlin;
using batchlin::index_type;
namespace mat = batchlin::mat;
namespace solver = batchlin::solver;
namespace work = batchlin::work;
namespace xpu = batchlin::xpu;
namespace stop = batchlin::stop;

TEST(Thomas, SolvesTridiagonalExactly)
{
    const index_type items = 16;
    const index_type rows = 50;
    const auto a = work::stencil_3pt<double>(items, rows, 5);
    const auto b = work::rhs_for_unit_solution(a);
    mat::batch_dense<double> x(items, rows, 1);
    bl::log::batch_log logger(items);
    xpu::queue q(xpu::make_sycl_policy());
    solver::run_thomas(q, a, b, x, logger, {0, items});
    EXPECT_EQ(logger.num_converged(), items);
    for (const double v : x.values()) {
        EXPECT_NEAR(v, 1.0, 1e-10);
    }
    // One launch, exactly like the fused iterative kernels.
    EXPECT_EQ(q.stats().kernel_launches, 1);
}

TEST(Thomas, RejectsNonTridiagonalPatterns)
{
    const auto a = work::generate_mechanism<double>(
        work::mechanism_by_name("drm19"));
    const auto b = work::mechanism_rhs<double>(a.num_batch_items(),
                                               a.rows(), 1);
    mat::batch_dense<double> x(a.num_batch_items(), a.rows(), 1);
    bl::log::batch_log logger(a.num_batch_items());
    xpu::queue q(xpu::make_sycl_policy());
    EXPECT_THROW(
        solver::run_thomas(q, a, b, x, logger, {0, a.num_batch_items()}),
        bl::error);
}

TEST(DenseLu, SolvesGeneralBatchExactly)
{
    const auto mech = work::mechanism_by_name("drm19");
    const auto a = work::generate_mechanism<double>(mech, 3);
    const index_type items = a.num_batch_items();
    const auto b = work::mechanism_rhs<double>(items, a.rows(), 9);
    mat::batch_dense<double> x(items, a.rows(), 1);
    bl::log::batch_log logger(items);
    xpu::queue q(xpu::make_sycl_policy());
    solver::run_dense_lu(q, a, b, x, logger, {0, items});
    EXPECT_EQ(logger.num_converged(), items);
    // Two kernels with the allocation in between — the §1 structure of
    // batched direct methods.
    EXPECT_EQ(q.stats().kernel_launches, 2);
    const solver::batch_matrix<double> variant = a;
    const auto res = solver::residual_norms(variant, b, x);
    for (double r : res) {
        EXPECT_LE(r, 1e-9);
    }
}

TEST(DenseLu, FlagsSingularSystems)
{
    // Item 1 made exactly singular (two equal rows).
    auto a = work::stencil_3pt<double>(3, 4, 3);
    auto dense = mat::to_dense(a);
    for (index_type j = 0; j < 4; ++j) {
        dense.at(1, 2, j) = dense.at(1, 1, j);
    }
    const auto a_sing = mat::to_csr(dense);
    const auto b = work::random_rhs<double>(3, 4, 2);
    mat::batch_dense<double> x(3, 4, 1);
    bl::log::batch_log logger(3);
    xpu::queue q(xpu::make_sycl_policy());
    solver::run_dense_lu(q, a_sing, b, x, logger, {0, 3});
    EXPECT_TRUE(logger.converged(0));
    EXPECT_FALSE(logger.converged(1));
    EXPECT_TRUE(logger.converged(2));
}

TEST(DirectVsIterative, AgreeOnTheSameBatch)
{
    const index_type items = 12;
    const index_type rows = 40;
    const auto a = work::stencil_3pt<double>(items, rows, 8);
    const auto b = work::random_rhs<double>(items, rows, 9);

    mat::batch_dense<double> x_direct(items, rows, 1);
    bl::log::batch_log logger(items);
    xpu::queue q(xpu::make_sycl_policy());
    solver::run_thomas(q, a, b, x_direct, logger, {0, items});

    const solver::batch_matrix<double> variant = a;
    mat::batch_dense<double> x_iter(items, rows, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::cg;
    opts.criterion = stop::relative(1e-12, 500);
    solver::solve(q, variant, b, x_iter, opts);

    for (std::size_t i = 0; i < x_direct.values().size(); ++i) {
        EXPECT_NEAR(x_direct.values()[i], x_iter.values()[i], 1e-8);
    }
}

TEST(Apply, MatchesResidualDefinition)
{
    const index_type items = 6;
    const index_type rows = 30;
    const auto a_csr = work::stencil_3pt<double>(items, rows, 4);
    const solver::batch_matrix<double> a = a_csr;
    const auto x = work::random_rhs<double>(items, rows, 5);
    mat::batch_dense<double> y(items, rows, 1);
    xpu::queue q(xpu::make_sycl_policy());
    mat::apply(q, a, x, y);
    // b := A x implies residual(a, y(=Ax), x) == 0.
    const solver::batch_matrix<double> variant = a_csr;
    const auto res = solver::residual_norms(variant, y, x);
    for (double r : res) {
        EXPECT_LE(r, 1e-11);
    }
    EXPECT_EQ(q.stats().kernel_launches, 1);
}

TEST(Apply, AllFormatsAgree)
{
    const index_type items = 4;
    const index_type rows = 25;
    const auto csr = work::stencil_3pt<double>(items, rows, 6);
    const auto x = work::random_rhs<double>(items, rows, 7);
    xpu::queue q(xpu::make_sycl_policy());
    mat::batch_dense<double> y_csr(items, rows, 1);
    mat::batch_dense<double> y_ell(items, rows, 1);
    mat::batch_dense<double> y_dense(items, rows, 1);
    mat::apply<double>(q, csr, x, y_csr);
    mat::apply<double>(q, mat::to_ell(csr), x, y_ell);
    mat::apply<double>(q, mat::to_dense(csr), x, y_dense);
    for (std::size_t i = 0; i < y_csr.values().size(); ++i) {
        EXPECT_NEAR(y_csr.values()[i], y_ell.values()[i], 1e-12);
        EXPECT_NEAR(y_csr.values()[i], y_dense.values()[i], 1e-12);
    }
}

TEST(Apply, AdvancedApplyScalesAndAccumulates)
{
    const index_type items = 3;
    const index_type rows = 12;
    const auto a_csr = work::stencil_3pt<double>(items, rows, 2);
    const solver::batch_matrix<double> a = a_csr;
    const auto x = work::random_rhs<double>(items, rows, 3);
    mat::batch_dense<double> y(items, rows, 1);
    mat::batch_dense<double> ax(items, rows, 1);
    y.fill(2.0);
    xpu::queue q(xpu::make_sycl_policy());
    mat::apply(q, a, x, ax);
    mat::advanced_apply(q, 3.0, a, x, -1.0, y);
    for (index_type item = 0; item < items; ++item) {
        for (index_type i = 0; i < rows; ++i) {
            EXPECT_NEAR(y.at(item, i, 0), 3.0 * ax.at(item, i, 0) - 2.0,
                        1e-11);
        }
    }
}

TEST(Apply, RejectsShapeMismatch)
{
    const auto a_csr = work::stencil_3pt<double>(2, 10, 1);
    const solver::batch_matrix<double> a = a_csr;
    const auto x = work::random_rhs<double>(2, 10, 1);
    mat::batch_dense<double> y_bad(2, 8, 1);
    xpu::queue q(xpu::make_sycl_policy());
    EXPECT_THROW(mat::apply(q, a, x, y_bad), bl::dimension_mismatch);
}

TEST(Equilibration, UnitInfinityNormRows)
{
    const auto mech = work::mechanism_by_name("gri12");
    auto a = work::generate_mechanism<double>(mech, 21);
    const auto s = mat::compute_equilibration(a);
    mat::scale_system(a, s);
    for (index_type item = 0; item < a.num_batch_items(); item += 7) {
        for (index_type i = 0; i < a.rows(); ++i) {
            double row_max = 0.0;
            for (index_type k = a.row_ptrs()[i]; k < a.row_ptrs()[i + 1];
                 ++k) {
                row_max = std::max(
                    row_max, std::abs(a.item_values(item)[k]));
            }
            EXPECT_LE(row_max, 1.0 + 1e-12);
            EXPECT_GT(row_max, 0.0);
        }
    }
}

TEST(Equilibration, ScaledSolveRecoversUnscaledSolution)
{
    const auto mech = work::mechanism_by_name("drm19");
    const auto a_orig = work::generate_mechanism<double>(mech, 33);
    const index_type items = a_orig.num_batch_items();
    auto b = work::mechanism_rhs<double>(items, a_orig.rows(), 13);

    // Reference: solve the unscaled system.
    solver::solve_options opts;
    opts.solver = solver::solver_type::bicgstab;
    opts.criterion = stop::relative(1e-12, 400);
    xpu::queue q(xpu::make_sycl_policy());
    mat::batch_dense<double> x_ref(items, a_orig.rows(), 1);
    solver::solve<double>(q, a_orig, b, x_ref, opts);

    // Equilibrated path: scale, solve, unscale.
    auto a_scaled = a_orig;
    auto b_scaled = b;
    const auto s = mat::compute_equilibration(a_scaled);
    mat::scale_system(a_scaled, s);
    mat::scale_rhs(b_scaled, s);
    mat::batch_dense<double> x(items, a_orig.rows(), 1);
    solver::solve<double>(q, a_scaled, b_scaled, x, opts);
    mat::unscale_solution(x, s);

    for (std::size_t i = 0; i < x.values().size(); ++i) {
        EXPECT_NEAR(x.values()[i], x_ref.values()[i],
                    1e-6 * (1.0 + std::abs(x_ref.values()[i])));
    }
}

TEST(History, RecordsMonotoneResidualsForCg)
{
    const index_type items = 4;
    const index_type rows = 48;
    const solver::batch_matrix<double> a =
        work::stencil_3pt<double>(items, rows, 19);
    const auto b = work::random_rhs<double>(items, rows, 20);
    mat::batch_dense<double> x(items, rows, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::cg;
    opts.criterion = stop::relative(1e-10, 200);
    opts.record_history = true;
    xpu::queue q(xpu::make_sycl_policy());
    const auto result = solver::solve(q, a, b, x, opts);
    ASSERT_TRUE(result.log.history_enabled());
    for (index_type item = 0; item < items; ++item) {
        const index_type iters = result.log.iterations(item);
        ASSERT_GT(iters, 2);
        // First recorded residual finite, final matches the log record.
        EXPECT_TRUE(std::isfinite(result.log.residual_at(item, 0)));
        EXPECT_NEAR(result.log.residual_at(item, iters - 1),
                    result.log.residual_norm(item), 1e-12);
        // Residuals decay overall (CG on SPD: monotone in A-norm; allow
        // small non-monotonicity in the 2-norm but require net decay).
        EXPECT_LT(result.log.residual_at(item, iters - 1),
                  result.log.residual_at(item, 0));
        // Outside the recorded range: NaN.
        EXPECT_TRUE(std::isnan(
            result.log.residual_at(item, opts.criterion.max_iterations)));
    }
}

TEST(History, DisabledByDefault)
{
    const solver::batch_matrix<double> a =
        work::stencil_3pt<double>(2, 16, 1);
    const auto b = work::random_rhs<double>(2, 16, 2);
    mat::batch_dense<double> x(2, 16, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::cg;
    xpu::queue q(xpu::make_sycl_policy());
    const auto result = solver::solve(q, a, b, x, opts);
    EXPECT_FALSE(result.log.history_enabled());
    EXPECT_TRUE(std::isnan(result.log.residual_at(0, 0)));
}
