// Tests of the mixed-precision storage path and the iterative-refinement
// driver built on it: fp32 storage halves the streamed matrix bytes but
// floors the attainable true residual, solve_refined recovers full FP64
// accuracy on the Table 4 chemistry matrices, serve replies stay
// bit-identical to solo solves under fp32 storage, the dynamic batcher
// never coalesces across storage policies, and a stalled refinement
// demotes to the native-storage fallback chain (which also absorbs
// injected device faults).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "batchlin/batchlin.hpp"
#include "oracle.hpp"

namespace bl = batchlin;
using bl::index_type;
using bl::size_type;
namespace mat = batchlin::mat;
namespace precond = batchlin::precond;
namespace serve = batchlin::serve;
namespace solver = batchlin::solver;
namespace stop = batchlin::stop;
namespace work = batchlin::work;
namespace xpu = batchlin::xpu;
using std::chrono::microseconds;
using std::chrono::milliseconds;

using oracle::make_request;

namespace {

solver::solve_options chem_opts(double tol = 1e-9)
{
    solver::solve_options opts;
    opts.solver = solver::solver_type::bicgstab;
    opts.preconditioner = precond::type::jacobi;
    opts.criterion = stop::relative(tol, 300);
    return opts;
}

double worst_true_residual(const solver::batch_matrix<double>& a,
                           const mat::batch_dense<double>& b,
                           const mat::batch_dense<double>& x)
{
    double worst = 0.0;
    for (const double r : solver::relative_residual_norms(a, b, x)) {
        worst = std::max(worst, r);
    }
    return worst;
}

}  // namespace

// ---------------------------------------------------------------------
// Storage-precision policy basics.
// ---------------------------------------------------------------------

TEST(MixedPrecision, EffectiveStorageCollapsesForNarrowComputeTypes)
{
    // fp32 storage under float compute stores nothing smaller — the
    // policy collapses to native so no conversion machinery engages.
    EXPECT_EQ(mat::effective_storage<float>(mat::storage_precision::fp32),
              mat::storage_precision::native);
    EXPECT_EQ(mat::effective_storage<double>(mat::storage_precision::fp32),
              mat::storage_precision::fp32);
    EXPECT_EQ(
        mat::effective_storage<double>(mat::storage_precision::native),
        mat::storage_precision::native);
}

namespace {

// One format's fp32 storage against its native batch: exact narrowing,
// the widening round trip, byte accounting, the width guards, and item
// copies converting in both directions.
template <typename M>
void expect_fp32_storage(const M& native)
{
    M narrow = native;
    narrow.set_storage_precision(mat::storage_precision::fp32);
    ASSERT_EQ(narrow.storage_mode(), mat::storage_precision::fp32);

    // Compression is an exact narrow of every stored value, and the data
    // is not all float-exact (or the checks below would prove nothing).
    const std::vector<double>& v = native.values();
    const std::vector<float>& v32 = narrow.values_fp32();
    ASSERT_EQ(v32.size(), v.size());
    bool inexact = false;
    for (std::size_t j = 0; j < v.size(); ++j) {
        EXPECT_EQ(v32[j], static_cast<float>(v[j])) << "value " << j;
        inexact = inexact || static_cast<double>(v32[j]) != v[j];
    }
    EXPECT_TRUE(inexact);

    // fp32 -> native widens the narrowed values back.
    M back = narrow;
    back.set_storage_precision(mat::storage_precision::native);
    ASSERT_EQ(back.values().size(), v32.size());
    for (std::size_t j = 0; j < v32.size(); ++j) {
        EXPECT_EQ(back.values()[j], static_cast<double>(v32[j]));
    }

    // The value bytes halve; the pattern bytes stay.
    EXPECT_EQ(narrow.value_bytes_per_item() * 2,
              native.value_bytes_per_item());
    const size_type native_value_bytes =
        native.value_bytes_per_item() * native.num_batch_items();
    EXPECT_EQ(narrow.storage_bytes(),
              native.storage_bytes() - native_value_bytes / 2);

    // Only the live width is accessible.
    EXPECT_THROW(narrow.item_values(0), bl::error);
    EXPECT_THROW(narrow.values(), bl::error);
    EXPECT_THROW(native.item_values_fp32(0), bl::error);
    EXPECT_THROW(native.item_span_fp32(0), bl::error);

    // Item copies convert between the widths in both directions.
    const index_type items = native.num_batch_items();
    M into_native = native;
    std::fill(into_native.values().begin(), into_native.values().end(), 0.0);
    mat::copy_items(narrow, 0, into_native, 0, items);
    EXPECT_EQ(into_native.values(), back.values());
    M into_fp32 = native;
    std::fill(into_fp32.values().begin(), into_fp32.values().end(), 0.0);
    into_fp32.set_storage_precision(mat::storage_precision::fp32);
    mat::copy_items(native, 0, into_fp32, 0, items);
    EXPECT_EQ(into_fp32.values_fp32(), v32);
}

}  // namespace

TEST(MixedPrecision, Fp32StorageHalvesValueBytesInEveryFormat)
{
    const mat::batch_csr<double> csr = work::stencil_3pt<double>(2, 32, 5);
    {
        SCOPED_TRACE("csr");
        expect_fp32_storage(csr);
    }
    {
        SCOPED_TRACE("ell");
        expect_fp32_storage(mat::to_ell(csr));
    }
    {
        SCOPED_TRACE("dense");
        expect_fp32_storage(mat::to_dense(csr));
    }
}

TEST(MixedPrecision, Fp32StorageReducesStreamedMatrixBytes)
{
    // The same solve, forced to the same iteration count, streams fewer
    // constant (matrix/precond payload) bytes under fp32 storage — the
    // counter reduction the perfmodel roofline consumes.
    const mat::batch_csr<double> csr =
        work::generate_mechanism_batch<double>(
            work::pele_mechanisms().front(), 8, 11);
    const solver::batch_matrix<double> a = csr;
    const auto b = work::random_rhs<double>(8, csr.rows(), 12);

    solver::solve_options opts = chem_opts();
    // Fixed budget, unreachable absolute tolerance: both runs execute
    // exactly max_iterations, so the byte counters compare like for like.
    opts.criterion = stop::absolute(1e-300, 20);

    xpu::queue qn(xpu::make_sycl_policy());
    mat::batch_dense<double> xn(8, csr.rows(), 1);
    opts.storage = mat::storage_precision::native;
    const auto native = solver::solve(qn, a, b, xn, opts);

    xpu::queue qc(xpu::make_sycl_policy());
    mat::batch_dense<double> xc(8, csr.rows(), 1);
    opts.storage = mat::storage_precision::fp32;
    const auto compressed = solver::solve(qc, a, b, xc, opts);

    EXPECT_LT(compressed.stats.constant_read_bytes,
              native.stats.constant_read_bytes);
    // Arithmetic stays FP64: flops are unchanged by the storage policy.
    EXPECT_EQ(compressed.stats.flops, native.stats.flops);
}

TEST(MixedPrecision, Fp32StorageFloorsTrueResidualBelowFp64Target)
{
    // The motivation for refinement: the compressed solve satisfies its
    // own (recursive) criterion, but the TRUE residual floors near fp32
    // epsilon — well short of what native storage delivers.
    const mat::batch_csr<double> csr =
        work::generate_mechanism_batch<double>(
            work::pele_mechanisms().back(), 16, 21);
    const solver::batch_matrix<double> a = csr;
    const auto b = work::random_rhs<double>(16, csr.rows(), 22);

    solver::solve_options opts = chem_opts(1e-9);

    xpu::queue qn(xpu::make_sycl_policy());
    mat::batch_dense<double> xn(16, csr.rows(), 1);
    opts.storage = mat::storage_precision::native;
    ASSERT_EQ(solver::solve(qn, a, b, xn, opts).log.num_converged(), 16);
    const double native_worst = worst_true_residual(a, b, xn);

    xpu::queue qc(xpu::make_sycl_policy());
    mat::batch_dense<double> xc(16, csr.rows(), 1);
    opts.storage = mat::storage_precision::fp32;
    ASSERT_EQ(solver::solve(qc, a, b, xc, opts).log.num_converged(), 16);
    const double compressed_worst = worst_true_residual(a, b, xc);

    EXPECT_LE(native_worst, 1e-8);
    EXPECT_GT(compressed_worst, 1e-8);  // floored near fp32 epsilon
}

// ---------------------------------------------------------------------
// Iterative refinement.
// ---------------------------------------------------------------------

TEST(Refine, RestoresFp64AccuracyOnChemistryMatrices)
{
    // The acceptance criterion of the mixed-precision path: on every
    // Table 4 mechanism, fp32 storage plus refinement meets the same
    // FP64 tolerance a native solve does.
    for (const work::mechanism& mech : work::pele_mechanisms()) {
        const mat::batch_csr<double> csr =
            work::generate_mechanism_batch<double>(mech, 8, 31);
        const solver::batch_matrix<double> a = csr;
        const auto b = work::random_rhs<double>(8, csr.rows(), 32);
        mat::batch_dense<double> x(8, csr.rows(), 1);

        solver::solve_options opts = chem_opts(1e-9);
        opts.storage = mat::storage_precision::fp32;

        xpu::queue q(xpu::make_sycl_policy());
        const solver::refined_result rr =
            solver::solve_refined(q, a, b, x, opts);

        EXPECT_EQ(rr.log.num_converged(), 8) << mech.name;
        EXPECT_FALSE(rr.fell_back) << mech.name;
        EXPECT_GE(rr.sweeps, 1) << mech.name;
        EXPECT_LE(worst_true_residual(a, b, x), 1e-9) << mech.name;
        ASSERT_EQ(rr.true_residuals.size(), 8u);
        for (const double r : rr.true_residuals) {
            EXPECT_LE(r, 1e-9) << mech.name;
        }
    }
}

TEST(Refine, NativeEffectiveStorageIsAPlainSolveWithReport)
{
    const mat::batch_csr<double> csr = work::stencil_3pt<double>(4, 48, 41);
    const solver::batch_matrix<double> a = csr;
    const auto b = work::random_rhs<double>(4, 48, 42);
    mat::batch_dense<double> x(4, 48, 1);

    solver::solve_options opts = chem_opts(1e-10);
    opts.storage = mat::storage_precision::native;

    xpu::queue q(xpu::make_sycl_policy());
    const solver::refined_result rr =
        solver::solve_refined(q, a, b, x, opts);
    EXPECT_EQ(rr.sweeps, 0);
    EXPECT_FALSE(rr.fell_back);
    EXPECT_EQ(rr.log.num_converged(), 4);
    EXPECT_LE(worst_true_residual(a, b, x), 1e-10);
}

TEST(Refine, StallDemotesToNativeStorageFallback)
{
    // Zero correction sweeps allowed: the compressed inner solve cannot
    // reach the FP64 target on its own, so refinement must demote to the
    // native-storage resilience chain — and still deliver full accuracy.
    const mat::batch_csr<double> csr =
        work::generate_mechanism_batch<double>(
            work::pele_mechanisms().front(), 6, 51);
    const solver::batch_matrix<double> a = csr;
    const auto b = work::random_rhs<double>(6, csr.rows(), 52);
    mat::batch_dense<double> x(6, csr.rows(), 1);

    solver::solve_options opts = chem_opts(1e-9);
    opts.storage = mat::storage_precision::fp32;
    solver::refine_options ropts;
    ropts.max_sweeps = 0;

    xpu::queue q(xpu::make_sycl_policy());
    const solver::refined_result rr =
        solver::solve_refined(q, a, b, x, opts, ropts);
    EXPECT_TRUE(rr.fell_back);
    EXPECT_EQ(rr.log.num_converged(), 6);
    EXPECT_LE(worst_true_residual(a, b, x), 1e-9);
    // The counters cover the fallback's launches too.
    EXPECT_EQ(static_cast<std::uint64_t>(rr.stats.kernel_launches),
              q.launches_submitted());
}

TEST(Refine, FallbackKeepsTheChainsTerminalStatus)
{
    // Three systems on one dense 2x2 pattern: a rank-1 A with inconsistent
    // b that no stage can solve, an indefinite diagonal that breaks CG
    // down (the chain's BiCGSTAB solves it), and an SPD system refinement
    // solves on its own. The first two fall back to the native chain; the
    // singular one must keep the chain's `singular`, not be relabeled by
    // its true residual as if it had merely run out of sweeps.
    mat::batch_csr<double> csr(3, 2, 2, {0, 2, 4}, {0, 1, 0, 1});
    const double vals[3][4] = {{1, 1, 1, 1}, {1, 0, 0, -1}, {4, 1, 1, 3}};
    const double rhs[3][2] = {{1, 0}, {1, 1}, {1, 2}};
    mat::batch_dense<double> b(3, 2, 1);
    for (index_type i = 0; i < 3; ++i) {
        std::copy(vals[i], vals[i] + 4, csr.item_values(i));
        std::copy(rhs[i], rhs[i] + 2, b.item_values(i));
    }
    const solver::batch_matrix<double> a = csr;
    mat::batch_dense<double> x(3, 2, 1);

    solver::solve_options opts;
    opts.solver = solver::solver_type::cg;
    opts.criterion = stop::relative(1e-10, 50);
    opts.storage = mat::storage_precision::fp32;
    solver::refine_options ropts;
    ropts.max_sweeps = 3;

    xpu::queue q(xpu::make_sycl_policy());
    const solver::refined_result rr =
        solver::solve_refined(q, a, b, x, opts, ropts);
    EXPECT_TRUE(rr.fell_back);
    EXPECT_EQ(rr.log.status(0), bl::log::solve_status::singular);
    EXPECT_EQ(rr.log.status(1), bl::log::solve_status::converged);
    EXPECT_EQ(rr.log.status(2), bl::log::solve_status::converged);
    // The failed chain is honest non-convergence: no false "converged".
    EXPECT_GT(rr.true_residuals[0], 1e-10);
    EXPECT_LE(rr.true_residuals[1], 1e-10);
    EXPECT_LE(rr.true_residuals[2], 1e-10);
}

// ---------------------------------------------------------------------
// Serve integration.
// ---------------------------------------------------------------------

TEST(MixedPrecision, ServeRepliesBitIdenticalToSoloUnderFp32Storage)
{
    // Only the fp32-storage requests of each mix (plain and refined):
    // submit() compresses the plain ones in place, the refined ones stay
    // native for their FP64 residuals.
    const auto fp32 = [](const oracle::request_case& c) {
        return c.kind == oracle::flavor::f64_fp32 ||
               c.kind == oracle::flavor::f64_refined;
    };
    for (const xpu::launch_mode mode : oracle::kLaunchModes) {
        for (const std::uint64_t seed : {4, 5, 6}) {
            oracle::check_serve_path({mode, 1, 1, milliseconds(20)}, seed,
                                     fp32);
        }
    }
}

TEST(MixedPrecision, CoalescingNeverMixesStoragePolicies)
{
    // Unit level: the pattern matches but the storage modes differ, so
    // the batcher must refuse to fuse.
    const mat::batch_csr<double> csr = work::stencil_3pt<double>(2, 20, 81);
    solver::batch_matrix<double> native = csr;
    mat::batch_csr<double> c32 = csr;
    c32.set_storage_precision(mat::storage_precision::fp32);
    solver::batch_matrix<double> compressed = c32;
    EXPECT_TRUE(solver::same_shape(native, compressed));
    EXPECT_FALSE(solver::can_coalesce(native, compressed));
    EXPECT_TRUE(solver::can_coalesce(native, native));
    EXPECT_TRUE(solver::can_coalesce(compressed, compressed));

    // The grouping hash separates the policies (and refined traffic)
    // before the exact check even runs.
    solver::solve_options n_opts = chem_opts();
    n_opts.storage = mat::storage_precision::native;
    solver::solve_options f_opts = chem_opts();
    f_opts.storage = mat::storage_precision::fp32;
    solver::solve_options r_opts = f_opts;
    r_opts.refine_sweeps = 2;
    EXPECT_NE(serve::detail::coalesce_key<double>(native, n_opts),
              serve::detail::coalesce_key<double>(compressed, f_opts));
    EXPECT_NE(serve::detail::coalesce_key<double>(native, f_opts),
              serve::detail::coalesce_key<double>(native, r_opts));

    // Service level: same pattern, mixed policies, one worker holding a
    // generous window — the fused launches stay homogeneous.
    serve::service_config cfg;
    cfg.workers = 1;
    cfg.max_wait = milliseconds(20);
    serve::solve_service service(xpu::make_sycl_policy(), cfg);
    std::vector<serve::solve_service::ticket<double>> tickets;
    for (int i = 0; i < 2; ++i) {
        tickets.push_back(service.submit(make_request(
            work::stencil_3pt<double>(2, 20, 81), n_opts, 90 + i)));
        tickets.push_back(service.submit(make_request(
            work::stencil_3pt<double>(2, 20, 81), f_opts, 90 + i)));
    }
    for (auto& t : tickets) {
        const auto reply = t.get();
        ASSERT_EQ(reply.status, serve::request_status::ok) << reply.error;
        // A fused launch of both policies would carry all 8 systems.
        EXPECT_LE(reply.fused_systems, 4);
    }
    service.drain();
    EXPECT_GE(service.stats().batches_launched, 2u);
}

TEST(Refine, ServeRoutesRefinedRequestsAndCountsSweeps)
{
    solver::solve_options opts = chem_opts(1e-9);
    opts.storage = mat::storage_precision::fp32;
    opts.refine_sweeps = 3;

    const mat::batch_csr<double> csr =
        work::generate_mechanism_batch<double>(
            work::pele_mechanisms().front(), 4, 91);
    const solver::batch_matrix<double> a = csr;

    serve::service_config cfg;
    cfg.workers = 1;
    cfg.max_wait = milliseconds(10);
    serve::solve_service service(xpu::make_sycl_policy(), cfg);

    auto ticket =
        service.submit(make_request(mat::batch_csr<double>(csr), opts, 92));
    const auto reply = ticket.get();
    ASSERT_EQ(reply.status, serve::request_status::ok) << reply.error;
    EXPECT_EQ(reply.log.num_converged(), 4);
    // Refined requests keep their native matrix (the FP64 residuals need
    // the native bits); only unrefined fp32 traffic is compressed.
    std::visit(
        [](const auto& m) {
            EXPECT_EQ(m.storage_mode(), mat::storage_precision::native);
        },
        reply.a);

    // The refined request really met the FP64 target.
    mat::batch_dense<double> x(4, csr.rows(), 1);
    std::copy(reply.x.values().begin(), reply.x.values().end(),
              x.values().begin());
    const auto b = work::random_rhs<double>(4, csr.rows(), 92);
    EXPECT_LE(worst_true_residual(a, b, x), 1e-9);

    service.drain();
    const serve::service_stats s = service.stats();
    EXPECT_EQ(s.refined_batches, 1u);
    EXPECT_GE(s.refine_sweeps, 1u);
    EXPECT_EQ(s.refine_fallbacks, 0u);
}

TEST(Refine, InjectedLaunchFaultOnRefinedBatchIsRetried)
{
    // A device fault during the refined batch's inner solve surfaces as
    // xpu::device_error; the serve retry ladder re-runs the whole
    // refinement and the request still resolves ok with FP64 accuracy.
    solver::solve_options opts = chem_opts(1e-9);
    opts.storage = mat::storage_precision::fp32;
    opts.refine_sweeps = 3;

    serve::service_config cfg;
    cfg.workers = 1;
    cfg.max_wait = milliseconds(0);
    cfg.launch_retries = 2;
    cfg.retry_backoff = microseconds(1);
    serve::solve_service service(
        oracle::mode_policy(xpu::launch_mode::direct, {0}), cfg);

    const mat::batch_csr<double> csr =
        work::generate_mechanism_batch<double>(
            work::pele_mechanisms().front(), 3, 95);
    auto ticket =
        service.submit(make_request(mat::batch_csr<double>(csr), opts, 96));
    const auto reply = ticket.get();
    ASSERT_EQ(reply.status, serve::request_status::ok) << reply.error;
    EXPECT_GE(reply.attempts, 2);
    EXPECT_EQ(reply.log.num_converged(), 3);

    service.drain();
    const serve::service_stats s = service.stats();
    EXPECT_GE(s.launch_faults, 1u);
    EXPECT_GE(s.refined_batches, 1u);
    EXPECT_EQ(s.failed_requests, 0u);
}
