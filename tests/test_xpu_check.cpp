// Tests of the xpu::check kernel portability sanitizer (compiled only in
// BATCHLIN_XPU_CHECK builds, see tests/CMakeLists.txt).
//
// Three layers:
//  * fixture kernels — each deliberately buggy in exactly one way, and the
//    checker must report exactly that diagnostic class with a correctly
//    located structured report;
//  * clean sweeps — every shipped solver kernel (iterative, direct, TRSV)
//    must pass the full checker, SLM-resident and spilled (spill scratch
//    is never cleared, so every spill slot starts undefined);
//  * lane-order adversary — race-free kernels must produce bit-identical
//    outputs under reversed and shuffled lane execution orders.
#include <gtest/gtest.h>

#include <vector>

#include "matrix/conversions.hpp"
#include "solver/direct.hpp"
#include "solver/dispatch.hpp"
#include "solver/residual.hpp"
#include "workload/stencil.hpp"
#include "xpu/check.hpp"
#include "xpu/queue.hpp"

namespace bl = batchlin;
using batchlin::index_type;
using batchlin::size_type;
namespace mat = batchlin::mat;
namespace precond = batchlin::precond;
namespace solver = batchlin::solver;
namespace stop = batchlin::stop;
namespace work = batchlin::work;
namespace xpu = batchlin::xpu;
namespace check = batchlin::xpu::check;

namespace {

xpu::exec_policy checked_policy(
    xpu::check_level level,
    xpu::lane_order order = xpu::lane_order::ascending,
    size_type slm_bytes = 128 * 1024)
{
    xpu::exec_policy policy = xpu::make_sycl_policy(1, slm_bytes);
    policy.check_level = level;
    policy.lane_order = order;
    return policy;
}

/// Runs `body` as a one-group launch under `level` and returns the
/// violation it must raise; fails the test when the kernel passes clean.
template <typename Body>
check::violation expect_violation(xpu::check_level level, const char* label,
                                  Body&& body)
{
    xpu::queue q(checked_policy(level));
    try {
        q.run_batch(1, 16, 16, std::forward<Body>(body), 0, label);
    } catch (const check::check_violation& e) {
        return e.report();
    }
    ADD_FAILURE() << label << " was expected to trigger a violation";
    return {};
}

}  // namespace

// ---------------------------------------------------------------------
// Fixture kernels: one diagnostic class each.
// ---------------------------------------------------------------------

TEST(CheckFixtures, UninitializedSlmReadIsFlagged)
{
    const check::violation v = expect_violation(
        xpu::check_level::shadow, "fixture_uninit_read", [](xpu::group& g) {
            auto s = g.slm().alloc<double>(16);
            // Reads s[3] before any write reaches the allocation.
            g.for_each_item([&](index_type i) {
                if (i == 0) {
                    [[maybe_unused]] const double stale = s[3];
                }
            });
        });
    EXPECT_EQ(v.kind, check::diagnostic::uninitialized_read);
    EXPECT_EQ(v.kernel, "fixture_uninit_read");
    EXPECT_EQ(v.group, 0);
    // Element 3 of a double allocation: bytes [24, 32).
    EXPECT_EQ(v.byte_begin, 24);
    EXPECT_EQ(v.byte_end, 32);
    EXPECT_EQ(v.lane_a, 0);
}

TEST(CheckFixtures, OutOfBoundsIndexIsFlagged)
{
    const check::violation v = expect_violation(
        xpu::check_level::shadow, "fixture_oob", [](xpu::group& g) {
            auto s = g.slm().alloc<double>(4);
            g.for_items(4, [&](index_type i) { s[i] = 1.0; });
            // One-past-the-end read, the classic grid-stride bound slip.
            [[maybe_unused]] const double beyond = s[4];
        });
    EXPECT_EQ(v.kind, check::diagnostic::out_of_bounds);
    EXPECT_EQ(v.kernel, "fixture_oob");
    EXPECT_EQ(v.byte_begin, 32);
    EXPECT_EQ(v.byte_end, 40);
}

TEST(CheckFixtures, UseAfterResetIsFlagged)
{
    const check::violation v = expect_violation(
        xpu::check_level::shadow, "fixture_use_after_reset",
        [](xpu::group& g) {
            auto s = g.slm().alloc<double>(4);
            g.for_items(4, [&](index_type i) { s[i] = 2.0; });
            g.slm().reset();  // releases the allocation...
            [[maybe_unused]] const double stale = s[0];  // ...then uses it
        });
    EXPECT_EQ(v.kind, check::diagnostic::use_after_reset);
}

TEST(CheckFixtures, WriteWriteRaceIsFlagged)
{
    const check::violation v = expect_violation(
        xpu::check_level::hazard, "fixture_ww_race", [](xpu::group& g) {
            auto s = g.slm().alloc<double>(16);
            // Every lane writes slot 0 in the same phase: serial execution
            // masks it, concurrent lanes on PVC make it a data race.
            g.for_each_item(
                [&](index_type i) { s[0] = static_cast<double>(i); });
        });
    EXPECT_EQ(v.kind, check::diagnostic::phase_race);
    EXPECT_NE(v.lane_a, v.lane_b);
    EXPECT_NE(v.detail.find("write-write"), std::string::npos);
    EXPECT_EQ(v.byte_begin, 0);
    EXPECT_EQ(v.byte_end, 8);
}

TEST(CheckFixtures, ReadWriteRaceIsFlagged)
{
    const check::violation v = expect_violation(
        xpu::check_level::hazard, "fixture_rw_race", [](xpu::group& g) {
            auto s = g.slm().alloc<double>(16);
            g.for_each_item(
                [&](index_type i) { s[i] = static_cast<double>(i); });
            // Neighbor read without an intervening barrier: lane i reads
            // the slot lane i+1 writes in the same phase.
            g.for_each_item([&](index_type i) {
                s[i] = s[(i + 1) % 16] * 0.5;
            });
        });
    EXPECT_EQ(v.kind, check::diagnostic::phase_race);
    EXPECT_NE(v.lane_a, v.lane_b);
    EXPECT_NE(v.detail.find("read-write"), std::string::npos);
}

TEST(CheckFixtures, NonuniformBarrierIsFlagged)
{
    const check::violation v = expect_violation(
        xpu::check_level::shadow, "fixture_diverged_barrier",
        [](xpu::group& g) {
            g.for_each_item([&](index_type i) {
                if (i == 2) {
                    g.barrier();  // diverged barrier: UB on real hardware
                }
            });
        });
    EXPECT_EQ(v.kind, check::diagnostic::nonuniform_collective);
    EXPECT_EQ(v.lane_a, 2);
}

TEST(CheckFixtures, NonuniformCollectiveIsFlagged)
{
    const check::violation v = expect_violation(
        xpu::check_level::shadow, "fixture_diverged_reduce",
        [](xpu::group& g) {
            g.for_each_item([&](index_type i) {
                if (i == 1) {
                    (void)g.reduce_sum<double>(
                        4, [](index_type) { return 1.0; },
                        xpu::reduce_path::sub_group);
                }
            });
        });
    EXPECT_EQ(v.kind, check::diagnostic::nonuniform_collective);
}

TEST(CheckFixtures, CleanKernelPassesEveryLevel)
{
    for (const auto level :
         {xpu::check_level::shadow, xpu::check_level::hazard,
          xpu::check_level::adversary}) {
        xpu::queue q(checked_policy(level, xpu::lane_order::shuffled));
        double sum = 0.0;
        q.run_batch(
            1, 16, 16,
            [&](xpu::group& g) {
                auto s = g.slm().alloc<double>(32);
                g.for_items(32, [&](index_type i) {
                    s[i] = static_cast<double>(i);
                });
                g.for_items(32, [&](index_type i) { s[i] *= 2.0; });
                sum = g.reduce_sum<double>(
                    32, [&](index_type i) { return s[i] * 1.0; },
                    xpu::reduce_path::sub_group);
            },
            0, "fixture_clean");
        EXPECT_DOUBLE_EQ(sum, 2.0 * (31.0 * 32.0 / 2.0));
    }
}

TEST(CheckFixtures, CheckLevelNoneRunsUninstrumented)
{
    // Opt-in contract: with check_level::none even a checked build must
    // run the racy fixture untouched (no tags, no overhead, no throw).
    xpu::queue q(checked_policy(xpu::check_level::none));
    EXPECT_NO_THROW(q.run_batch(
        1, 16, 16,
        [](xpu::group& g) {
            auto s = g.slm().alloc<double>(16);
            g.for_each_item(
                [&](index_type i) { s[0] = static_cast<double>(i); });
        },
        0, "fixture_ww_race"));
}

// ---------------------------------------------------------------------
// Lane-order adversary.
// ---------------------------------------------------------------------

TEST(LaneOrderAdversary, OrderDependentKernelIsCaught)
{
    auto produce = [](xpu::lane_order order) {
        xpu::queue q(checked_policy(xpu::check_level::adversary, order));
        std::vector<double> out(16, 0.0);
        q.run_batch(
            1, 16, 16,
            [&](xpu::group& g) {
                // Untracked host variable standing in for a kernel that
                // lets "the last lane win": the serial simulator always
                // picks lane 15, real hardware picks whoever runs last.
                double last = 0.0;
                g.for_each_item([&](index_type i) {
                    last = static_cast<double>(i);
                });
                g.for_each_item([&](index_type i) { out[i] = last; });
            },
            0, "fixture_order_dependent");
        return out;
    };
    try {
        check::verify_lane_order_independent("fixture_order_dependent",
                                             produce,
                                             xpu::lane_order::reversed);
        FAIL() << "lane-order dependence was not detected";
    } catch (const check::check_violation& e) {
        EXPECT_EQ(e.report().kind,
                  check::diagnostic::lane_order_dependence);
        EXPECT_EQ(e.report().kernel, "fixture_order_dependent");
    }
}

TEST(LaneOrderAdversary, RaceFreeKernelIsBitIdentical)
{
    auto produce = [](xpu::lane_order order) {
        xpu::queue q(checked_policy(xpu::check_level::adversary, order));
        std::vector<double> out(48, 0.0);
        q.run_batch(
            1, 16, 16,
            [&](xpu::group& g) {
                auto s = g.slm().alloc<double>(48);
                g.for_items(48, [&](index_type i) {
                    s[i] = 0.25 * static_cast<double>(i) - 3.0;
                });
                const double nrm = g.reduce_sum<double>(
                    48, [&](index_type i) { return s[i] * s[i]; },
                    xpu::reduce_path::sub_group);
                g.for_items(48, [&](index_type i) {
                    out[i] = s[i] * 1.0 + nrm;
                });
            },
            0, "fixture_race_free");
        return out;
    };
    EXPECT_NO_THROW(check::verify_lane_order_independent(
        "fixture_race_free", produce, xpu::lane_order::reversed));
    EXPECT_NO_THROW(check::verify_lane_order_independent(
        "fixture_race_free", produce, xpu::lane_order::shuffled));
}

TEST(LaneOrderAdversary, SolverOutputsAreLaneOrderIndependent)
{
    const index_type items = 4;
    const index_type rows = 24;
    const auto a_csr = work::stencil_3pt<double>(items, rows, 11);
    const solver::batch_matrix<double> a = a_csr;
    const auto b = work::random_rhs<double>(items, rows, 3);

    auto produce = [&](xpu::lane_order order) {
        xpu::queue q(checked_policy(xpu::check_level::adversary, order));
        mat::batch_dense<double> x(items, rows, 1);
        solver::solve_options opts;
        opts.solver = solver::solver_type::cg;
        opts.preconditioner = precond::type::jacobi;
        opts.criterion = stop::relative(1e-10, 300);
        solver::solve(q, a, b, x, opts);
        return x.values();
    };
    EXPECT_NO_THROW(check::verify_lane_order_independent(
        "batch_cg", produce, xpu::lane_order::reversed));
    EXPECT_NO_THROW(check::verify_lane_order_independent(
        "batch_cg", produce, xpu::lane_order::shuffled));
}

// ---------------------------------------------------------------------
// Clean sweeps: every shipped kernel under the full checker.
// ---------------------------------------------------------------------

namespace {

/// Solves a small stencil batch under the full checker, from a zero guess
/// (the prologue copies r from b) and from a nonzero one (the prologue's
/// SpMV), and returns the workspace plan.
solver::slm_plan expect_clean_solve(solver::solver_type s,
                                    solver::matrix_format f,
                                    precond::type pc, size_type slm_bytes)
{
    const index_type items = 4;
    const index_type rows = 24;
    const auto csr = work::stencil_3pt<double>(items, rows, 7);
    solver::batch_matrix<double> a = csr;
    if (f == solver::matrix_format::ell) {
        a = mat::to_ell(csr);
    } else if (f == solver::matrix_format::dense) {
        a = mat::to_dense(csr);
    }
    const auto b = work::random_rhs<double>(items, rows, 5);

    solver::solve_options opts;
    opts.solver = s;
    opts.preconditioner = pc;
    opts.criterion = stop::relative(1e-8, 300);
    opts.gmres_restart = 15;
    if (pc == precond::type::none) {
        // Unpreconditioned Richardson needs damping on the stencil.
        opts.richardson_relaxation = 0.35;
    }

    xpu::queue q(checked_policy(xpu::check_level::adversary,
                                xpu::lane_order::shuffled, slm_bytes));
    solver::slm_plan plan;
    for (const double guess : {0.0, 0.5}) {
        mat::batch_dense<double> x(items, rows, 1);
        x.fill(guess);
        const auto result = solver::solve(q, a, b, x, opts);
        EXPECT_EQ(result.log.num_converged(), items)
            << solver::to_string(s) << "/" << precond::to_string(pc)
            << " guess " << guess;
        plan = result.plan;
    }
    return plan;
}

constexpr size_type kSlmResident = 128 * 1024;
/// Small enough that the planner spills most slots to global scratch.
constexpr size_type kSlmTiny = 512;
/// Below one 24-row vector: the planner spills every slot.
constexpr size_type kSlmNone = 128;

}  // namespace

TEST(CheckedSolvers, CgCleanUnderFullChecker)
{
    for (const auto pc :
         {precond::type::none, precond::type::jacobi, precond::type::ilu,
          precond::type::isai, precond::type::block_jacobi}) {
        expect_clean_solve(solver::solver_type::cg,
                           solver::matrix_format::csr, pc, kSlmResident);
    }
}

TEST(CheckedSolvers, BicgstabCleanUnderFullChecker)
{
    for (const auto pc :
         {precond::type::none, precond::type::jacobi, precond::type::ilu,
          precond::type::isai}) {
        expect_clean_solve(solver::solver_type::bicgstab,
                           solver::matrix_format::csr, pc, kSlmResident);
    }
}

TEST(CheckedSolvers, GmresCleanUnderFullChecker)
{
    for (const auto pc :
         {precond::type::none, precond::type::jacobi, precond::type::ilu,
          precond::type::isai}) {
        expect_clean_solve(solver::solver_type::gmres,
                           solver::matrix_format::csr, pc, kSlmResident);
    }
}

TEST(CheckedSolvers, RichardsonCleanUnderFullChecker)
{
    expect_clean_solve(solver::solver_type::richardson,
                       solver::matrix_format::csr, precond::type::jacobi,
                       kSlmResident);
}

TEST(CheckedSolvers, EllAndDenseFormatsClean)
{
    expect_clean_solve(solver::solver_type::cg, solver::matrix_format::ell,
                       precond::type::jacobi, kSlmResident);
    expect_clean_solve(solver::solver_type::cg,
                       solver::matrix_format::dense, precond::type::jacobi,
                       kSlmResident);
}

TEST(CheckedSolvers, SpilledWorkspaceClean)
{
    // A tiny SLM budget spills workspace slots to global scratch, which is
    // never cleared: every spill slot starts shadow-undefined, so this
    // sweep proves each kernel writes its spilled workspace before reading
    // it — every solver x legal format/preconditioner cell, then trsv.
    using enum solver::matrix_format;
    using ptype = precond::type;
    const std::pair<solver::matrix_format, ptype> cells[] = {
        {csr, ptype::none},  {csr, ptype::jacobi}, {csr, ptype::ilu},
        {csr, ptype::isai},  {csr, ptype::block_jacobi},
        {ell, ptype::none},  {ell, ptype::jacobi}, {dense, ptype::none},
        {dense, ptype::jacobi}};
    for (const auto& [f, pc] : cells) {
        for (const auto s :
             {solver::solver_type::cg, solver::solver_type::bicgstab,
              solver::solver_type::gmres, solver::solver_type::richardson}) {
            EXPECT_GT(
                expect_clean_solve(s, f, pc, kSlmTiny).global_elems_per_group,
                0)
                << solver::to_string(s) << "/" << precond::to_string(pc);
        }
        // BiCGSTAB's fused passes write r, s and t inside the reductions'
        // combine loop; with every slot spilled, those writes land in
        // shadow-undefined scratch too.
        const solver::slm_plan plan = expect_clean_solve(
            solver::solver_type::bicgstab, f, pc, kSlmNone);
        for (const char* name : {"r", "s", "t"}) {
            EXPECT_FALSE(plan.in_slm(name))
                << name << " " << precond::to_string(pc);
        }
    }

    // A lower-bidiagonal system long enough that trsv's solution slot
    // spills too.
    const index_type items = 2;
    const index_type rows = 96;
    std::vector<index_type> rp{0};
    std::vector<index_type> ci;
    for (index_type i = 0; i < rows; ++i) {
        if (i > 0) {
            ci.push_back(i - 1);
        }
        ci.push_back(i);
        rp.push_back(static_cast<index_type>(ci.size()));
    }
    mat::batch_csr<double> a_csr(items, rows, rows, rp, ci);
    for (index_type item = 0; item < items; ++item) {
        for (index_type i = 0; i < rows; ++i) {
            double* row = a_csr.item_values(item) + rp[i];
            if (i > 0) {
                *row++ = -1.0;
            }
            *row = 2.0 + static_cast<double>(item);
        }
    }
    const solver::batch_matrix<double> a = a_csr;
    const auto b = work::random_rhs<double>(items, rows, 9);
    mat::batch_dense<double> x(items, rows, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::trsv;
    xpu::queue q(checked_policy(xpu::check_level::adversary,
                                xpu::lane_order::shuffled, kSlmTiny));
    const auto result = solver::solve(q, a, b, x, opts);
    EXPECT_EQ(result.log.num_converged(), items);
    EXPECT_GT(result.plan.global_elems_per_group, 0);
}

TEST(CheckedSolvers, TrsvCleanUnderFullChecker)
{
    std::vector<index_type> rp{0, 1, 3, 5};
    std::vector<index_type> ci{0, 0, 1, 1, 2};
    mat::batch_csr<double> a_csr(2, 3, 3, rp, ci);
    const double v0[] = {2, 1, 3, -1, 4};
    const double v1[] = {1, 2, 2, 3, 5};
    std::copy(std::begin(v0), std::end(v0), a_csr.item_values(0));
    std::copy(std::begin(v1), std::end(v1), a_csr.item_values(1));
    const solver::batch_matrix<double> a = a_csr;
    const auto b = work::random_rhs<double>(2, 3, 6);
    mat::batch_dense<double> x(2, 3, 1);
    solver::solve_options opts;
    opts.solver = solver::solver_type::trsv;
    xpu::queue q(checked_policy(xpu::check_level::adversary,
                                xpu::lane_order::shuffled));
    const auto result = solver::solve(q, a, b, x, opts);
    EXPECT_EQ(result.log.num_converged(), 2);
}

TEST(CheckedSolvers, DirectSolversCleanUnderFullChecker)
{
    const index_type items = 6;
    const index_type rows = 32;
    const auto tri = work::stencil_3pt<double>(items, rows, 5);
    const auto banded = work::stencil_banded<double>(items, rows, 2, 7);
    const auto b = work::random_rhs<double>(items, rows, 8);

    {
        mat::batch_dense<double> x(items, rows, 1);
        bl::log::batch_log logger(items);
        xpu::queue q(checked_policy(xpu::check_level::adversary,
                                    xpu::lane_order::shuffled));
        solver::run_thomas(q, tri, b, x, logger, {0, items});
        EXPECT_EQ(logger.num_converged(), items);
    }
    {
        mat::batch_dense<double> x(items, rows, 1);
        bl::log::batch_log logger(items);
        xpu::queue q(checked_policy(xpu::check_level::adversary,
                                    xpu::lane_order::shuffled));
        solver::run_dense_lu(q, tri, b, x, logger, {0, items});
        EXPECT_EQ(logger.num_converged(), items);
    }
    {
        mat::batch_dense<double> x(items, rows, 1);
        bl::log::batch_log logger(items);
        xpu::queue q(checked_policy(xpu::check_level::adversary,
                                    xpu::lane_order::shuffled));
        solver::run_banded(q, banded, b, x, logger, {0, items}, 2);
        EXPECT_EQ(logger.num_converged(), items);
    }
}

TEST(CheckedSolvers, PolicyToStringCoversCheckKnobs)
{
    EXPECT_EQ(xpu::to_string(xpu::check_level::none), "none");
    EXPECT_EQ(xpu::to_string(xpu::check_level::shadow), "shadow");
    EXPECT_EQ(xpu::to_string(xpu::check_level::hazard), "hazard");
    EXPECT_EQ(xpu::to_string(xpu::check_level::adversary), "adversary");
    EXPECT_EQ(xpu::to_string(xpu::lane_order::ascending), "ascending");
    EXPECT_EQ(xpu::to_string(xpu::lane_order::reversed), "reversed");
    EXPECT_EQ(xpu::to_string(xpu::lane_order::shuffled), "shuffled");
}
