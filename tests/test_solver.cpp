// Integration tests of the batched solvers through the multi-level
// dispatch: every legal (solver x format x preconditioner) combination of
// Table 3 must converge to the requested tolerance, verified against the
// explicit host-side residual. Parameterized suites sweep the combination
// space; targeted tests cover initial guesses, per-system monitoring,
// failure injection, and the direct BatchTrsv.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>

#include "matrix/conversions.hpp"
#include "oracle.hpp"
#include "solver/dispatch.hpp"
#include "solver/residual.hpp"
#include "solver/trsv.hpp"
#include "util/error.hpp"
#include "workload/chemistry.hpp"
#include "workload/replicate.hpp"
#include "workload/stencil.hpp"

namespace bl = batchlin;
using batchlin::index_type;
namespace mat = batchlin::mat;
namespace solver = batchlin::solver;
namespace precond = batchlin::precond;
namespace stop = batchlin::stop;
namespace work = batchlin::work;
namespace xpu = batchlin::xpu;

namespace {

constexpr index_type kBatch = 24;
constexpr index_type kRows = 48;

solver::batch_matrix<double> spd_in_format(solver::matrix_format f)
{
    const auto csr = work::stencil_3pt<double>(kBatch, kRows, 11);
    switch (f) {
    case solver::matrix_format::csr:
        return csr;
    case solver::matrix_format::ell:
        return mat::to_ell(csr);
    case solver::matrix_format::dense:
        return mat::to_dense(csr);
    }
    return csr;
}

solver::batch_matrix<double> chem_in_format(solver::matrix_format f)
{
    const auto unique = work::generate_mechanism<double>(
        work::mechanism_by_name("drm19"), 3);
    const auto csr = work::replicate(unique, kBatch, 1e-3, 5);
    switch (f) {
    case solver::matrix_format::csr:
        return csr;
    case solver::matrix_format::ell:
        return mat::to_ell(csr);
    case solver::matrix_format::dense:
        return mat::to_dense(csr);
    }
    return csr;
}

index_type rows_of(const solver::batch_matrix<double>& a)
{
    return std::visit([](const auto& m) { return m.rows(); }, a);
}

void expect_solved(const solver::batch_matrix<double>& a,
                   const mat::batch_dense<double>& b,
                   const mat::batch_dense<double>& x,
                   const solver::solve_result& result, double tol)
{
    EXPECT_EQ(result.log.num_converged(), b.num_batch_items());
    const auto rel = solver::relative_residual_norms(a, b, x);
    for (index_type i = 0; i < static_cast<index_type>(rel.size()); ++i) {
        EXPECT_LE(rel[i], tol * 50) << "system " << i;
    }
}

}  // namespace

// ---------------------------------------------------------------------
// Parameterized sweep: solver x format x preconditioner (Table 3).
// ---------------------------------------------------------------------

using combo = std::tuple<solver::solver_type, solver::matrix_format,
                         precond::type>;

class SolverCombos : public ::testing::TestWithParam<combo> {};

TEST_P(SolverCombos, ConvergesToTolerance)
{
    const auto [solver_kind, format, pc] = GetParam();
    // CG needs SPD input; the others get the non-symmetric chemistry batch.
    const bool spd = solver_kind == solver::solver_type::cg;
    const solver::batch_matrix<double> a =
        spd ? spd_in_format(format) : chem_in_format(format);
    const index_type rows = rows_of(a);
    const auto b = work::random_rhs<double>(kBatch, rows, 3);
    mat::batch_dense<double> x(kBatch, rows, 1);

    solver::solve_options opts;
    opts.solver = solver_kind;
    opts.preconditioner = pc;
    opts.criterion = stop::relative(1e-10, 500);
    opts.gmres_restart = 20;

    xpu::queue q(xpu::make_sycl_policy());
    const solver::solve_result result = solver::solve(q, a, b, x, opts);
    expect_solved(a, b, x, result, 1e-10);
}

TEST_P(SolverCombos, ConvergesUnderCudaExecutionModel)
{
    // The same combination must solve identically under the CUDA policy
    // (warp-32 sub-groups, warp-only reductions, §3.2) — the paper's
    // portability claim at the algorithm level.
    const auto [solver_kind, format, pc] = GetParam();
    const bool spd = solver_kind == solver::solver_type::cg;
    const solver::batch_matrix<double> a =
        spd ? spd_in_format(format) : chem_in_format(format);
    const index_type rows = rows_of(a);
    const auto b = work::random_rhs<double>(kBatch, rows, 3);
    mat::batch_dense<double> x(kBatch, rows, 1);

    solver::solve_options opts;
    opts.solver = solver_kind;
    opts.preconditioner = pc;
    opts.criterion = stop::relative(1e-10, 500);
    opts.gmres_restart = 20;

    xpu::queue q(xpu::make_cuda_policy(192 * 1024));
    const solver::solve_result result = solver::solve(q, a, b, x, opts);
    EXPECT_EQ(result.config.sub_group_size, 32);
    EXPECT_EQ(result.config.reduction, xpu::reduce_path::sub_group);
    expect_solved(a, b, x, result, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Table3, SolverCombos,
    ::testing::Values(
        // CG on all formats, identity + jacobi; csr also ilu/isai.
        combo{solver::solver_type::cg, solver::matrix_format::csr,
              precond::type::none},
        combo{solver::solver_type::cg, solver::matrix_format::csr,
              precond::type::jacobi},
        combo{solver::solver_type::cg, solver::matrix_format::csr,
              precond::type::ilu},
        combo{solver::solver_type::cg, solver::matrix_format::csr,
              precond::type::isai},
        combo{solver::solver_type::cg, solver::matrix_format::ell,
              precond::type::none},
        combo{solver::solver_type::cg, solver::matrix_format::ell,
              precond::type::jacobi},
        combo{solver::solver_type::cg, solver::matrix_format::dense,
              precond::type::none},
        combo{solver::solver_type::cg, solver::matrix_format::dense,
              precond::type::jacobi},
        // BiCGSTAB over the same grid.
        combo{solver::solver_type::bicgstab, solver::matrix_format::csr,
              precond::type::none},
        combo{solver::solver_type::bicgstab, solver::matrix_format::csr,
              precond::type::jacobi},
        combo{solver::solver_type::bicgstab, solver::matrix_format::csr,
              precond::type::ilu},
        combo{solver::solver_type::bicgstab, solver::matrix_format::csr,
              precond::type::isai},
        combo{solver::solver_type::bicgstab, solver::matrix_format::ell,
              precond::type::jacobi},
        combo{solver::solver_type::bicgstab, solver::matrix_format::dense,
              precond::type::jacobi},
        // GMRES over the same grid.
        combo{solver::solver_type::gmres, solver::matrix_format::csr,
              precond::type::none},
        combo{solver::solver_type::gmres, solver::matrix_format::csr,
              precond::type::jacobi},
        combo{solver::solver_type::gmres, solver::matrix_format::csr,
              precond::type::ilu},
        combo{solver::solver_type::gmres, solver::matrix_format::csr,
              precond::type::isai},
        combo{solver::solver_type::gmres, solver::matrix_format::ell,
              precond::type::jacobi},
        combo{solver::solver_type::gmres, solver::matrix_format::dense,
              precond::type::jacobi}),
    [](const ::testing::TestParamInfo<combo>& tpi) {
        return solver::to_string(std::get<0>(tpi.param)) + "_" +
               solver::to_string(std::get<1>(tpi.param)) + "_" +
               precond::to_string(std::get<2>(tpi.param));
    });

// ---------------------------------------------------------------------
// Parameterized sweep: launch-configuration axes (§3.6).
// ---------------------------------------------------------------------

using launch_combo = std::tuple<index_type, xpu::reduce_path>;

class LaunchSweep : public ::testing::TestWithParam<launch_combo> {};

TEST_P(LaunchSweep, SameAnswerForEveryLaunchConfig)
{
    const auto [sub_group, reduction] = GetParam();
    const auto a_csr = work::stencil_3pt<double>(kBatch, 50, 17);
    const solver::batch_matrix<double> a = a_csr;
    const auto b = work::random_rhs<double>(kBatch, 50, 23);
    mat::batch_dense<double> x(kBatch, 50, 1);

    solver::solve_options opts;
    opts.solver = solver::solver_type::cg;
    opts.preconditioner = precond::type::jacobi;
    opts.criterion = stop::relative(1e-11, 400);
    opts.sub_group_size = sub_group;
    opts.reduction = reduction;

    xpu::queue q(xpu::make_sycl_policy());
    const auto result = solver::solve(q, a, b, x, opts);
    EXPECT_EQ(result.config.sub_group_size, sub_group);
    EXPECT_EQ(result.config.reduction, reduction);
    EXPECT_EQ(result.config.work_group_size,
              bl::round_up(50, sub_group));
    expect_solved(a, b, x, result, 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    SubGroupAndReduction, LaunchSweep,
    ::testing::Combine(::testing::Values<index_type>(16, 32),
                       ::testing::Values(xpu::reduce_path::group,
                                         xpu::reduce_path::sub_group)),
    [](const ::testing::TestParamInfo<launch_combo>& tpi) {
        const bool grp = std::get<1>(tpi.param) == xpu::reduce_path::group;
        return "sg" + std::to_string(std::get<0>(tpi.param)) +
               (grp ? "_group_reduce" : "_subgroup_reduce");
    });

// ---------------------------------------------------------------------
// Targeted behaviours.
// ---------------------------------------------------------------------

TEST(SolverBehaviour, GoodInitialGuessCutsIterations)
{
    // The paper's central motivation (§1): an iterative solver can reuse
    // the previous solution of a similar system as the initial guess.
    const auto a_csr = work::stencil_3pt<double>(8, 64, 3);
    const solver::batch_matrix<double> a = a_csr;
    const auto b = work::random_rhs<double>(8, 64, 4);
    solver::solve_options opts;
    opts.solver = solver::solver_type::cg;
    opts.criterion = stop::relative(1e-10, 500);
    xpu::queue q(xpu::make_sycl_policy());

    mat::batch_dense<double> x_cold(8, 64, 1);
    const auto cold = solver::solve(q, a, b, x_cold, opts);

    mat::batch_dense<double> x_warm = x_cold;  // the converged solution
    const auto warm = solver::solve(q, a, b, x_warm, opts);
    EXPECT_LT(warm.log.max_iterations(), 3);
    EXPECT_LT(warm.log.max_iterations(), cold.log.min_iterations());
}

TEST(SolverBehaviour, PerSystemIterationCountsDiffer)
{
    // Systems with different conditioning must be monitored individually.
    auto a_csr = work::stencil_3pt<double>(4, 64, 9);
    // Make item 2 much better conditioned (strong diagonal).
    for (index_type i = 0; i < 64; ++i) {
        for (index_type k = a_csr.row_ptrs()[i]; k < a_csr.row_ptrs()[i + 1];
             ++k) {
            if (a_csr.col_idxs()[k] == i) {
                a_csr.item_values(2)[k] += 10.0;
            }
        }
    }
    const solver::batch_matrix<double> a = a_csr;
    const auto b = work::random_rhs<double>(4, 64, 2);
    mat::batch_dense<double> x(4, 64, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::cg;
    opts.criterion = stop::relative(1e-10, 500);
    xpu::queue q(xpu::make_sycl_policy());
    const auto result = solver::solve(q, a, b, x, opts);
    EXPECT_LT(result.log.iterations(2), result.log.iterations(0));
    EXPECT_EQ(result.log.num_converged(), 4);
}

TEST(SolverBehaviour, MaxIterationsReportsNotConverged)
{
    const auto a_csr = work::stencil_3pt<double>(4, 128, 21);
    const solver::batch_matrix<double> a = a_csr;
    const auto b = work::random_rhs<double>(4, 128, 22);
    mat::batch_dense<double> x(4, 128, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::cg;
    opts.criterion = stop::relative(1e-12, 3);  // starve the budget
    xpu::queue q(xpu::make_sycl_policy());
    const auto result = solver::solve(q, a, b, x, opts);
    EXPECT_EQ(result.log.num_converged(), 0);
    for (index_type i = 0; i < 4; ++i) {
        EXPECT_EQ(result.log.iterations(i), 3);
        EXPECT_GT(result.log.residual_norm(i), 0.0);
    }
}

TEST(SolverBehaviour, ZeroRhsConvergesImmediately)
{
    const auto a_csr = work::stencil_3pt<double>(2, 32, 5);
    const solver::batch_matrix<double> a = a_csr;
    mat::batch_dense<double> b(2, 32, 1);  // zero rhs
    mat::batch_dense<double> x(2, 32, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::bicgstab;
    opts.criterion = stop::relative(1e-10, 100);
    xpu::queue q(xpu::make_sycl_policy());
    const auto result = solver::solve(q, a, b, x, opts);
    EXPECT_EQ(result.log.num_converged(), 2);
    EXPECT_EQ(result.log.max_iterations(), 0);
    for (double v : x.values()) {
        EXPECT_EQ(v, 0.0);
    }
}

TEST(SolverBehaviour, AbsoluteCriterionHonored)
{
    const auto a_csr = work::stencil_3pt<double>(4, 40, 13);
    const solver::batch_matrix<double> a = a_csr;
    const auto b = work::random_rhs<double>(4, 40, 14);
    mat::batch_dense<double> x(4, 40, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::cg;
    opts.criterion = stop::absolute(1e-8, 500);
    xpu::queue q(xpu::make_sycl_policy());
    const auto result = solver::solve(q, a, b, x, opts);
    EXPECT_EQ(result.log.num_converged(), 4);
    const auto res = solver::residual_norms(a, b, x);
    for (double r : res) {
        EXPECT_LE(r, 1e-7);
    }
}

TEST(SolverBehaviour, FloatPrecisionSolves)
{
    const auto a_csr = work::stencil_3pt<float>(8, 32, 31);
    const solver::batch_matrix<float> a = a_csr;
    const auto b = work::random_rhs<float>(8, 32, 32);
    mat::batch_dense<float> x(8, 32, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::cg;
    opts.preconditioner = precond::type::jacobi;
    opts.criterion = stop::relative(1e-5, 300);
    xpu::queue q(xpu::make_sycl_policy());
    const auto result = solver::solve(q, a, b, x, opts);
    EXPECT_EQ(result.log.num_converged(), 8);
    const auto rel = solver::relative_residual_norms(a, b, x);
    for (double r : rel) {
        EXPECT_LE(r, 1e-4);
    }
}

TEST(SolverBehaviour, CudaPolicySolvesIdentically)
{
    // The CUDA execution model (warp 32, no group reduction) must give the
    // same answers — only the performance counters differ (§3.2).
    const auto a_csr = work::stencil_3pt<double>(8, 48, 41);
    const solver::batch_matrix<double> a = a_csr;
    const auto b = work::random_rhs<double>(8, 48, 42);
    solver::solve_options opts;
    opts.solver = solver::solver_type::cg;
    opts.preconditioner = precond::type::jacobi;
    opts.criterion = stop::relative(1e-11, 400);

    mat::batch_dense<double> x_sycl(8, 48, 1);
    xpu::queue q_sycl(xpu::make_sycl_policy());
    const auto r_sycl = solver::solve(q_sycl, a, b, x_sycl, opts);

    mat::batch_dense<double> x_cuda(8, 48, 1);
    xpu::queue q_cuda(xpu::make_cuda_policy(192 * 1024));
    const auto r_cuda = solver::solve(q_cuda, a, b, x_cuda, opts);

    EXPECT_EQ(r_cuda.config.sub_group_size, 32);
    EXPECT_EQ(r_cuda.config.reduction, xpu::reduce_path::sub_group);
    EXPECT_EQ(r_sycl.log.num_converged(), 8);
    EXPECT_EQ(r_cuda.log.num_converged(), 8);
    const auto rel = solver::relative_residual_norms(a, b, x_cuda);
    for (double r : rel) {
        EXPECT_LE(r, 1e-9);
    }
}

TEST(SolverBehaviour, RangeSolveTouchesOnlyRange)
{
    const auto a_csr = work::stencil_3pt<double>(10, 32, 8);
    const solver::batch_matrix<double> a = a_csr;
    const auto b = work::random_rhs<double>(10, 32, 9);
    mat::batch_dense<double> x(10, 32, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::cg;
    opts.criterion = stop::relative(1e-10, 300);
    xpu::queue q(xpu::make_sycl_policy());
    const auto result = solver::solve_range(q, a, b, x, opts, {3, 7});
    EXPECT_EQ(result.log.num_converged(), 4);
    // Systems outside the range keep the zero guess.
    for (index_type i = 0; i < 32; ++i) {
        EXPECT_EQ(x.at(0, i, 0), 0.0);
        EXPECT_EQ(x.at(9, i, 0), 0.0);
        EXPECT_NE(x.at(4, i, 0), 0.0);
    }
}

TEST(Trsv, SolvesLowerTriangularExactly)
{
    // Lower-triangular pattern: diag + subdiagonal.
    std::vector<index_type> rp{0, 1, 3, 5};
    std::vector<index_type> ci{0, 0, 1, 1, 2};
    mat::batch_csr<double> a_csr(2, 3, 3, rp, ci);
    const double v0[] = {2, 1, 3, -1, 4};
    const double v1[] = {1, 2, 2, 3, 5};
    std::copy(std::begin(v0), std::end(v0), a_csr.item_values(0));
    std::copy(std::begin(v1), std::end(v1), a_csr.item_values(1));
    const solver::batch_matrix<double> a = a_csr;
    auto b = work::random_rhs<double>(2, 3, 6);
    mat::batch_dense<double> x(2, 3, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::trsv;
    xpu::queue q(xpu::make_sycl_policy());
    const auto result = solver::solve(q, a, b, x, opts);
    EXPECT_EQ(result.log.num_converged(), 2);
    const auto res = solver::residual_norms(a, b, x);
    EXPECT_LE(res[0], 1e-13);
    EXPECT_LE(res[1], 1e-13);
}

TEST(Trsv, SolvesUpperTriangularExactly)
{
    std::vector<index_type> rp{0, 2, 4, 5};
    std::vector<index_type> ci{0, 2, 1, 2, 2};
    mat::batch_csr<double> a_csr(1, 3, 3, rp, ci);
    const double v0[] = {3, 1, 2, -2, 5};
    std::copy(std::begin(v0), std::end(v0), a_csr.item_values(0));
    const solver::batch_matrix<double> a = a_csr;
    auto b = work::random_rhs<double>(1, 3, 6);
    mat::batch_dense<double> x(1, 3, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::trsv;
    xpu::queue q(xpu::make_sycl_policy());
    const auto result = solver::solve(q, a, b, x, opts);
    EXPECT_EQ(result.log.num_converged(), 1);
    EXPECT_LE(solver::residual_norms(a, b, x)[0], 1e-13);
}

TEST(Trsv, DetectsTriangleAndRejectsGeneral)
{
    const auto general = work::stencil_3pt<double>(1, 8);
    EXPECT_THROW(solver::detect_triangle(general),
                 bl::unsupported_combination);
    std::vector<index_type> rp{0, 1, 3};
    std::vector<index_type> ci{0, 0, 1};
    const mat::batch_csr<double> lower(1, 2, 2, rp, ci);
    EXPECT_EQ(solver::detect_triangle(lower), solver::triangle::lower);
}

TEST(Dispatch, RejectsIllegalCombinations)
{
    const auto a_ell = mat::to_ell(work::stencil_3pt<double>(2, 16));
    const solver::batch_matrix<double> a = a_ell;
    const auto b = work::random_rhs<double>(2, 16, 1);
    mat::batch_dense<double> x(2, 16, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::cg;
    opts.preconditioner = precond::type::ilu;
    xpu::queue q(xpu::make_sycl_policy());
    EXPECT_THROW(solver::solve(q, a, b, x, opts),
                 bl::unsupported_combination);
    opts.preconditioner = precond::type::isai;
    EXPECT_THROW(solver::solve(q, a, b, x, opts),
                 bl::unsupported_combination);
    // TRSV on a non-CSR variant.
    opts.solver = solver::solver_type::trsv;
    opts.preconditioner = precond::type::none;
    EXPECT_THROW(solver::solve(q, a, b, x, opts), bl::error);
}

TEST(Dispatch, RejectsDimensionMismatches)
{
    const auto a_csr = work::stencil_3pt<double>(2, 16);
    const solver::batch_matrix<double> a = a_csr;
    solver::solve_options opts;
    xpu::queue q(xpu::make_sycl_policy());
    mat::batch_dense<double> x(2, 16, 1);
    {
        const auto b_wrong_items = work::random_rhs<double>(3, 16, 1);
        EXPECT_THROW(solver::solve(q, a, b_wrong_items, x, opts),
                     bl::dimension_mismatch);
    }
    {
        const auto b_wrong_rows = work::random_rhs<double>(2, 8, 1);
        EXPECT_THROW(solver::solve(q, a, b_wrong_rows, x, opts),
                     bl::dimension_mismatch);
    }
    {
        const auto b = work::random_rhs<double>(2, 16, 1);
        EXPECT_THROW(solver::solve_range(q, a, b, x, opts, {0, 5}),
                     bl::dimension_mismatch);
    }
}

TEST(Dispatch, SingleFusedLaunchPerSolve)
{
    const auto a_csr = work::stencil_3pt<double>(16, 32, 2);
    const solver::batch_matrix<double> a = a_csr;
    const auto b = work::random_rhs<double>(16, 32, 3);
    mat::batch_dense<double> x(16, 32, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::bicgstab;
    opts.preconditioner = precond::type::jacobi;
    xpu::queue q(xpu::make_sycl_policy());
    const auto result = solver::solve(q, a, b, x, opts);
    // §3.4: everything — setup, preconditioner generation, iteration —
    // in exactly one kernel launch.
    EXPECT_EQ(result.stats.kernel_launches, 1);
    EXPECT_EQ(result.stats.groups_launched, 16);
    EXPECT_GT(result.stats.total_iterations, 0.0);
}

// ---------------------------------------------------------------------
// The zero-guess prologue (solver/kernel_common.hpp).
// ---------------------------------------------------------------------

namespace {

/// SLM bytes one SpMV charges for reading its x (blas/spmv.hpp): CSR and
/// ELL gather one 32 B transaction per stored entry, dense reads each
/// entry's element.
double spmv_x_bytes(const solver::batch_matrix<double>& a)
{
    return std::visit(
        [](const auto& m) -> double {
            using M = std::decay_t<decltype(m)>;
            if constexpr (std::is_same_v<M, mat::batch_csr<double>>) {
                return m.nnz() * bl::blas::gather_transaction_bytes;
            } else if constexpr (std::is_same_v<M, mat::batch_ell<double>>) {
                return static_cast<double>(m.rows()) * m.ell_width() *
                       bl::blas::gather_transaction_bytes;
            } else {
                return static_cast<double>(m.rows()) * m.cols() *
                       sizeof(double);
            }
        },
        a);
}

struct guess_run {
    solver::solve_result result;
    std::vector<double> x;
    double spmv_x_bytes = 0.0;
};

/// Solves the oracle's case `c` from a guess of `guess` everywhere; with
/// `poison`, A(0, 1) of system 0 is NaN.
guess_run solve_from(oracle::request_case c, double guess, bool poison)
{
    const solver::matrix_format format = c.format;
    c.format = solver::matrix_format::csr;
    auto r = oracle::request_of<double>(c);
    auto& csr = std::get<mat::batch_csr<double>>(r.a);
    if (poison) {
        EXPECT_EQ(csr.col_idxs()[1], 1);  // row 0 holds columns 0 and 1
        csr.item_values(0)[1] = std::numeric_limits<double>::quiet_NaN();
    }
    if (format == solver::matrix_format::ell) {
        r.a = mat::to_ell(csr);
    } else if (format == solver::matrix_format::dense) {
        r.a = mat::to_dense(csr);
    }
    std::fill(r.x.values().begin(), r.x.values().end(), guess);
    xpu::queue q(xpu::make_sycl_policy());
    guess_run out{solver::solve(q, r.a, r.b, r.x, r.opts), r.x.values(),
                  spmv_x_bytes(r.a)};
    return out;
}

}  // namespace

TEST(Solver, ZeroGuessSkipsTheInitialSpmv)
{
    // A +0.0 guess skips the initial SpMV; a -0.0 guess takes it. For
    // finite A, b - A (+-0) is b bit for bit, so both must agree on every
    // bit but the counters, which must drop at least the SpMV's x reads.
    using enum solver::matrix_format;
    for (const auto format : {csr, ell, dense}) {
        for (const auto s :
             {oracle::stype::cg, oracle::stype::bicgstab,
              oracle::stype::gmres, oracle::stype::richardson}) {
            const oracle::request_case c{oracle::flavor::f64, format,
                                         oracle::ptype::jacobi, s, 16, 3, 7};
            const std::string where = oracle::describe(c);
            const guess_run pos = solve_from(c, 0.0, false);
            const guess_run neg = solve_from(c, -0.0, false);
            const bl::log::batch_log& lp = pos.result.log;
            const bl::log::batch_log& ln = neg.result.log;
            EXPECT_EQ(lp.num_converged(), c.items) << where;
            for (index_type i = 0; i < c.items; ++i) {
                EXPECT_EQ(lp.status(i), ln.status(i)) << where;
                EXPECT_EQ(lp.iterations(i), ln.iterations(i)) << where;
                const double res[2] = {lp.residual_norm(i),
                                       ln.residual_norm(i)};
                EXPECT_EQ(std::memcmp(&res[0], &res[1], sizeof(double)), 0)
                    << where << " system " << i;
            }
            EXPECT_EQ(std::memcmp(pos.x.data(), neg.x.data(),
                                  pos.x.size() * sizeof(double)),
                      0)
                << where;
            EXPECT_GE(neg.result.stats.slm_bytes - pos.result.stats.slm_bytes,
                      c.items * pos.spmv_x_bytes)
                << where;

            // A NaN in A: the skipped SpMV no longer reports it at
            // iteration 0, but the first iteration's SpMV does, before x
            // moves off the guess.
            const guess_run bad = solve_from(c, 0.0, true);
            const guess_run bad_full = solve_from(c, -0.0, true);
            EXPECT_EQ(bad.result.log.status(0),
                      bl::log::solve_status::non_finite)
                << where;
            EXPECT_EQ(bad.result.log.iterations(0), 1) << where;
            EXPECT_EQ(bad_full.result.log.status(0),
                      bl::log::solve_status::non_finite)
                << where;
            EXPECT_EQ(bad_full.result.log.iterations(0), 0) << where;
            for (index_type k = 0; k < c.rows; ++k) {
                EXPECT_EQ(std::signbit(bad.x[static_cast<std::size_t>(k)]),
                          false)
                    << where;
                EXPECT_EQ(bad.x[static_cast<std::size_t>(k)], 0.0) << where;
            }
            EXPECT_EQ(bad.result.log.num_converged(), c.items - 1) << where;
        }
    }
}
