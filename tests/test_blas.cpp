// Unit tests for the device-side BLAS building blocks and the per-format
// SpMV kernels, including the traffic-attribution counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "blas/device_blas.hpp"
#include "blas/matrix_view.hpp"
#include "blas/spmv.hpp"
#include "matrix/conversions.hpp"
#include "workload/stencil.hpp"
#include "xpu/arena.hpp"
#include "xpu/group.hpp"

namespace bl = batchlin;
using namespace batchlin::xpu;
using batchlin::index_type;
namespace blas = batchlin::blas;
namespace mat = batchlin::mat;

namespace {

struct group_fixture {
    counters stats;
    slm_arena arena{1 << 20};
    group g{0, 32, 16, arena, stats};

    template <typename T>
    dspan<T> global(std::vector<T>& v)
    {
        return {v.data(), static_cast<index_type>(v.size()),
                mem_space::global};
    }
    template <typename T>
    dspan<T> slm(std::vector<T>& v)
    {
        return {v.data(), static_cast<index_type>(v.size()),
                mem_space::slm};
    }
    template <typename T>
    dspan<const T> constant(const std::vector<T>& v)
    {
        return {v.data(), static_cast<index_type>(v.size()),
                mem_space::constant};
    }
};

}  // namespace

TEST(Blas1, FillAndCopy)
{
    group_fixture f;
    std::vector<double> a(8, 0.0);
    std::vector<double> b(8, 0.0);
    blas::fill<double>(f.g, f.global(a), 3.0);
    blas::copy<double>(f.g, f.global(a), f.global(b));
    for (double v : b) {
        EXPECT_EQ(v, 3.0);
    }
}

TEST(Blas1, ScaleAxpyAxpby)
{
    group_fixture f;
    std::vector<double> x{1, 2, 3};
    std::vector<double> y{10, 20, 30};
    blas::scale<double>(f.g, 2.0, f.global(x));  // x = {2,4,6}
    blas::axpy<double>(f.g, 0.5, f.global(x), f.global(y));
    EXPECT_EQ(y[0], 11.0);
    EXPECT_EQ(y[2], 33.0);
    blas::axpby<double>(f.g, 1.0, f.global(x), -1.0, f.global(y));
    EXPECT_EQ(y[0], 2.0 - 11.0);
    EXPECT_EQ(y[1], 4.0 - 22.0);
}

TEST(Blas1, ElementwiseMult)
{
    group_fixture f;
    std::vector<double> a{1, 2, 3};
    std::vector<double> b{4, 5, 6};
    std::vector<double> out(3);
    blas::elementwise_mult<double, double>(f.g, f.global(a), f.global(b),
                                           f.global(out));
    EXPECT_EQ(out[0], 4.0);
    EXPECT_EQ(out[1], 10.0);
    EXPECT_EQ(out[2], 18.0);
}

TEST(Blas1, DotAndNorm)
{
    group_fixture f;
    std::vector<double> x{3, 4, 0, 0};
    std::vector<double> y{1, 1, 1, 1};
    EXPECT_DOUBLE_EQ(blas::dot<double>(f.g, f.global(x), f.global(y),
                                       reduce_path::group),
                     7.0);
    EXPECT_DOUBLE_EQ(
        blas::nrm2<double>(f.g, f.global(x), reduce_path::sub_group), 5.0);
}

TEST(Blas1, DotPathsAgree)
{
    group_fixture f;
    std::vector<double> x(97), y(97);
    for (index_type i = 0; i < 97; ++i) {
        x[i] = std::sin(0.1 * i);
        y[i] = std::cos(0.2 * i);
    }
    const double dg = blas::dot<double>(f.g, f.global(x), f.global(y),
                                        reduce_path::group);
    const double ds = blas::dot<double>(f.g, f.global(x), f.global(y),
                                        reduce_path::sub_group);
    EXPECT_NEAR(dg, ds, 1e-13);
}

TEST(Blas1, TrafficAttributedBySpace)
{
    group_fixture f;
    std::vector<double> src(16), dst(16);
    blas::copy<double>(f.g, f.slm(src), f.global(dst));
    EXPECT_DOUBLE_EQ(f.stats.slm_bytes, 16.0 * 8);
    EXPECT_DOUBLE_EQ(f.stats.global_write_bytes, 16.0 * 8);
    EXPECT_DOUBLE_EQ(f.stats.global_read_bytes, 0.0);
}

TEST(Blas1, ConstantReadsCountedSeparately)
{
    group_fixture f;
    std::vector<double> src(16), dst(16);
    dspan<const double> c{src.data(), 16, mem_space::constant};
    blas::copy<double>(f.g, c, f.slm(dst));
    EXPECT_DOUBLE_EQ(f.stats.constant_read_bytes, 16.0 * 8);
    EXPECT_DOUBLE_EQ(f.stats.slm_bytes, 16.0 * 8);
}

TEST(Blas1, FlopCounts)
{
    group_fixture f;
    std::vector<double> x(10, 1.0), y(10, 1.0);
    blas::axpy<double>(f.g, 2.0, f.global(x), f.global(y));
    EXPECT_DOUBLE_EQ(f.stats.flops, 20.0);
    f.stats.flops = 0;
    blas::dot<double>(f.g, f.global(x), f.global(y), reduce_path::group);
    // n multiplies + n reduction adds.
    EXPECT_DOUBLE_EQ(f.stats.flops, 20.0);
}

namespace {

/// Dense reference y = A x for one CSR item.
std::vector<double> reference_spmv(const mat::batch_csr<double>& a,
                                   index_type item,
                                   const std::vector<double>& x)
{
    std::vector<double> y(a.rows(), 0.0);
    for (index_type i = 0; i < a.rows(); ++i) {
        for (index_type k = a.row_ptrs()[i]; k < a.row_ptrs()[i + 1]; ++k) {
            y[i] += a.item_values(item)[k] * x[a.col_idxs()[k]];
        }
    }
    return y;
}

}  // namespace

TEST(Spmv, CsrMatchesReference)
{
    const auto a = batchlin::work::stencil_3pt<double>(3, 40);
    group_fixture f;
    std::vector<double> x(40), y(40);
    for (index_type i = 0; i < 40; ++i) {
        x[i] = 0.3 * i - 2.0;
    }
    for (index_type item = 0; item < 3; ++item) {
        blas::spmv<double>(f.g, blas::item_view(a, item), f.global(x),
                           f.global(y));
        const auto ref = reference_spmv(a, item, x);
        for (index_type i = 0; i < 40; ++i) {
            EXPECT_NEAR(y[i], ref[i], 1e-13) << "row " << i;
        }
    }
}

TEST(Spmv, EllMatchesCsr)
{
    const auto a = batchlin::work::stencil_3pt<double>(2, 33);
    const auto e = mat::to_ell(a);
    group_fixture f;
    std::vector<double> x(33), y_csr(33), y_ell(33);
    for (index_type i = 0; i < 33; ++i) {
        x[i] = std::sin(0.7 * i);
    }
    blas::spmv<double>(f.g, blas::item_view(a, 1), f.global(x),
                       f.global(y_csr));
    blas::spmv<double>(f.g, blas::item_view(e, 1), f.global(x),
                       f.global(y_ell));
    for (index_type i = 0; i < 33; ++i) {
        EXPECT_NEAR(y_csr[i], y_ell[i], 1e-13);
    }
}

TEST(Spmv, DenseMatchesCsr)
{
    const auto a = batchlin::work::stencil_3pt<double>(2, 17);
    const auto d = mat::to_dense(a);
    group_fixture f;
    std::vector<double> x(17), y_csr(17), y_dense(17);
    for (index_type i = 0; i < 17; ++i) {
        x[i] = 1.0 / (i + 1);
    }
    blas::spmv<double>(f.g, blas::item_view(a, 0), f.global(x),
                       f.global(y_csr));
    blas::spmv<double>(f.g, blas::item_view(d, 0), f.global(x),
                       f.global(y_dense));
    for (index_type i = 0; i < 17; ++i) {
        EXPECT_NEAR(y_csr[i], y_dense[i], 1e-13);
    }
}

TEST(Spmv, CsrChargesPatternAsConstant)
{
    const auto a = batchlin::work::stencil_3pt<double>(1, 16);
    group_fixture f;
    std::vector<double> x(16, 1.0), y(16);
    blas::spmv<double>(f.g, blas::item_view(a, 0), f.global(x),
                       f.global(y));
    const double nnz = 3.0 * 16 - 2;
    // Pattern (row_ptrs + col_idxs) + matrix values as constant reads.
    EXPECT_DOUBLE_EQ(f.stats.constant_read_bytes,
                     (16 + 1 + nnz) * 4 + nnz * 8);
    // x gathers are charged at transaction granularity (see spmv.hpp).
    EXPECT_DOUBLE_EQ(f.stats.global_read_bytes,
                     nnz * blas::gather_transaction_bytes);
    EXPECT_DOUBLE_EQ(f.stats.global_write_bytes, 16.0 * 8);  // y
    // Flop slots: every row occupies a full 16-lane sub-group (rows have
    // 2-3 nnz), plus one combine per row.
    EXPECT_DOUBLE_EQ(f.stats.flops, 2.0 * 16 * 16 + 16.0);
}

TEST(Spmv, LaunchCountedSlotsChargeLikeThePerSpmvCount)
{
    // Rows of 1, 17 and 33 entries: each rounds up to the sub-group size.
    std::vector<index_type> col_idxs;
    for (const index_type len : {1, 17, 33}) {
        for (index_type j = 0; j < len; ++j) {
            col_idxs.push_back(j);
        }
    }
    mat::batch_csr<double> a(1, 3, 40, {0, 1, 18, 51}, col_idxs);
    std::fill_n(a.item_values(0), a.nnz(), 0.5);
    EXPECT_EQ(blas::spmv_slots(a, 16), 16.0 + 32.0 + 48.0);
    EXPECT_EQ(blas::spmv_slots(a, 32), 32.0 + 32.0 + 64.0);
    for (const index_type sg : {16, 32}) {
        // A view carrying the launch's count charges exactly what a view
        // without one charges by counting the rows itself.
        counters launch_counted;
        counters self_counted;
        slm_arena arena{1 << 20};
        group g_launch{0, 32, sg, arena, launch_counted};
        group g_self{0, 32, sg, arena, self_counted};
        std::vector<double> x(40, 1.0), y_launch(3), y_self(3);
        dspan<const double> x_span{x.data(), 40, mem_space::global};
        blas::spmv<double>(
            g_launch,
            blas::item_view_as<double>(a, 0, blas::spmv_slots(a, sg)),
            x_span, dspan<double>{y_launch.data(), 3, mem_space::global});
        blas::spmv<double>(g_self, blas::item_view(a, 0), x_span,
                           dspan<double>{y_self.data(), 3,
                                         mem_space::global});
        EXPECT_EQ(y_launch, y_self);
        EXPECT_EQ(launch_counted.flops, 2.0 * blas::spmv_slots(a, sg) + 3);
        EXPECT_EQ(launch_counted.flops, self_counted.flops);
        EXPECT_EQ(launch_counted.global_read_bytes,
                  self_counted.global_read_bytes);
        EXPECT_EQ(launch_counted.global_write_bytes,
                  self_counted.global_write_bytes);
        EXPECT_EQ(launch_counted.constant_read_bytes,
                  self_counted.constant_read_bytes);
        EXPECT_EQ(launch_counted.slm_bytes, self_counted.slm_bytes);
    }
}

TEST(Spmv, EllPaddingStillComputes)
{
    // A pattern with one long row: ELL pads the rest; results must agree
    // and the padded lanes count as flops (they execute on hardware).
    std::vector<index_type> rp{0, 1, 5, 6};
    std::vector<index_type> ci{0, 0, 1, 2, 3, 2, 3};
    // row lengths 1, 4, 1, 1 -> width 4
    std::vector<index_type> rp4{0, 1, 5, 6, 7};
    mat::batch_csr<double> a(1, 4, 4, rp4, ci);
    for (index_type k = 0; k < a.nnz(); ++k) {
        a.item_values(0)[k] = k + 1.0;
    }
    const auto e = mat::to_ell(a);
    EXPECT_EQ(e.ell_width(), 4);
    group_fixture f;
    std::vector<double> x{1, 2, 3, 4};
    std::vector<double> y_csr(4), y_ell(4);
    blas::spmv<double>(f.g, blas::item_view(a, 0), f.global(x),
                       f.global(y_csr));
    blas::spmv<double>(f.g, blas::item_view(e, 0), f.global(x),
                       f.global(y_ell));
    for (index_type i = 0; i < 4; ++i) {
        EXPECT_NEAR(y_csr[i], y_ell[i], 1e-14);
    }
}

TEST(Spmv, AdvancedSpmvFusesUpdate)
{
    const auto a = batchlin::work::stencil_3pt<double>(1, 8);
    group_fixture f;
    std::vector<double> x(8, 1.0), y(8, 10.0), scratch(8);
    // y = 2*A*x - 1*y
    blas::advanced_spmv(f.g, 2.0, blas::item_view(a, 0),
                        dspan<const double>{x.data(), 8, mem_space::global},
                        -1.0, f.global(y), f.global(scratch));
    const auto ax = reference_spmv(a, 0, x);
    for (index_type i = 0; i < 8; ++i) {
        EXPECT_NEAR(y[i], 2.0 * ax[i] - 10.0, 1e-13);
    }
}

TEST(Spmv, FloatInstantiation)
{
    const auto a = batchlin::work::stencil_3pt<float>(1, 12);
    group_fixture f;
    std::vector<float> x(12, 1.0f), y(12);
    blas::spmv<float>(f.g, blas::item_view(a, 0),
                      dspan<const float>{x.data(), 12, mem_space::global},
                      dspan<float>{y.data(), 12, mem_space::global});
    // Row 0 of the stencil: diag + (-1) = shift + 1 > 0.
    EXPECT_GT(y[0], 0.0f);
}

// ---------------------------------------------------------------------
// Fused passes: each must match the unfused sequence it replaces bit for
// bit, and charge only the operands its one pass moves.
// ---------------------------------------------------------------------

namespace {

/// Longer than the fixture's 32-item group and its 16-lane sub-groups, so
/// the lanes grid-stride and the reductions combine three partials.
constexpr index_type kLen = 40;
constexpr double kElem = sizeof(double);
/// The group path's SLM staging of one reduced value, and its barriers
/// (the fixture's group has 32 items).
constexpr double kStage = 2.0 * 32 * kElem;
constexpr std::int64_t kTreeBarriers = 5;

/// Values in [-2, 2) with signed zeros and subnormals mixed in.
std::vector<double> hostile(std::uint64_t seed, index_type n = kLen)
{
    std::mt19937_64 gen(seed);
    std::uniform_real_distribution<double> u(-2.0, 2.0);
    std::vector<double> v(static_cast<std::size_t>(n));
    for (double& e : v) {
        switch (gen() % 5) {
        case 0:
            e = 0.0;
            break;
        case 1:
            e = -0.0;
            break;
        case 2:
            e = u(gen) * 1e6 * std::numeric_limits<double>::denorm_min();
            break;
        default:
            e = u(gen);
        }
    }
    return v;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

constexpr reduce_path kPaths[] = {reduce_path::group, reduce_path::sub_group};

}  // namespace

TEST(Blas, CopyIsZeroVotesOnTheBits)
{
    const std::vector<double> zeros(kLen, 0.0);
    for (const double odd :
         {-0.0, std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::quiet_NaN(), 1.0}) {
        for (const index_type at : {0, 17, kLen - 1}) {
            std::vector<double> src = zeros;
            src[at] = odd;
            std::vector<double> dst(kLen, 5.0);
            group_fixture f;
            EXPECT_FALSE(blas::copy_is_zero<double>(
                f.g, f.global(src), f.slm(dst), reduce_path::group))
                << odd << " at " << at;
            EXPECT_TRUE(same_bits(dst, src));
        }
    }

    group_fixture f;
    std::vector<double> dst(kLen, 5.0);
    EXPECT_TRUE(blas::copy_is_zero<double>(f.g, f.constant(zeros),
                                           f.slm(dst), reduce_path::group));
    EXPECT_TRUE(same_bits(dst, zeros));
    // One read, one write, one reduction of an index_type flag per element.
    EXPECT_DOUBLE_EQ(f.stats.constant_read_bytes, kLen * kElem);
    EXPECT_DOUBLE_EQ(f.stats.slm_bytes,
                     kLen * kElem + 2.0 * 32 * sizeof(index_type));
    EXPECT_DOUBLE_EQ(f.stats.global_read_bytes + f.stats.global_write_bytes,
                     0.0);
    EXPECT_DOUBLE_EQ(f.stats.flops, kLen);
    EXPECT_EQ(f.stats.group_barriers, kTreeBarriers);
}

TEST(Blas, AxpyNrm2MatchesCopyAxpyNrm2)
{
    const std::vector<double> x = hostile(1);
    const std::vector<double> y = hostile(2);
    for (const reduce_path path : kPaths) {
        for (const double alpha : {-0.7, 3.25, -0.0}) {
            group_fixture f;
            std::vector<double> want(kLen);
            blas::copy<double>(f.g, f.constant(y), f.global(want));
            blas::axpy<double>(f.g, alpha, f.constant(x), f.global(want));
            const double want_norm =
                blas::nrm2<double>(f.g, f.global(want), path);
            std::vector<double> got(kLen);
            const double got_norm = blas::axpy_nrm2<double>(
                f.g, alpha, f.constant(x), f.constant(y), f.global(got),
                path);
            EXPECT_TRUE(same_bits(got, want)) << alpha;
            EXPECT_TRUE(same_bits(got_norm, want_norm)) << alpha;
        }
    }

    // Reads x (global) and y (constant), writes out (SLM), one reduction.
    group_fixture f;
    std::vector<double> xs = x;
    std::vector<double> out(kLen);
    blas::axpy_nrm2<double>(f.g, 0.5, f.global(xs), f.constant(y),
                            f.slm(out), reduce_path::group);
    EXPECT_DOUBLE_EQ(f.stats.global_read_bytes, kLen * kElem);
    EXPECT_DOUBLE_EQ(f.stats.constant_read_bytes, kLen * kElem);
    EXPECT_DOUBLE_EQ(f.stats.slm_bytes, kLen * kElem + kStage);
    EXPECT_DOUBLE_EQ(f.stats.global_write_bytes, 0.0);
    EXPECT_DOUBLE_EQ(f.stats.flops, 4.0 * kLen);  // axpy, square, add
    EXPECT_EQ(f.stats.group_barriers, kTreeBarriers);
}

TEST(Blas, DirectionUpdateMatchesAxpyThenAxpby)
{
    const std::vector<double> r = hostile(3);
    const std::vector<double> v = hostile(4);
    const std::vector<double> p0 = hostile(5);
    for (const auto& [beta, omega] :
         {std::pair{0.3, 1.7}, std::pair{-2.5, -0.0}, std::pair{0.0, 0.9}}) {
        group_fixture f;
        std::vector<double> want = p0;
        blas::axpy<double>(f.g, -omega, f.constant(v), f.global(want));
        blas::axpby<double>(f.g, 1.0, f.constant(r), beta, f.global(want));
        std::vector<double> got = p0;
        blas::direction_update<double>(f.g, f.constant(r), beta, omega,
                                       f.constant(v), f.global(got));
        EXPECT_TRUE(same_bits(got, want)) << beta << ' ' << omega;
    }

    // Reads r (constant), v (global) and p (SLM), writes p: one phase.
    group_fixture f;
    std::vector<double> vs = v;
    std::vector<double> p = p0;
    blas::direction_update<double>(f.g, f.constant(r), 0.3, 1.7,
                                   f.global(vs), f.slm(p));
    EXPECT_DOUBLE_EQ(f.stats.constant_read_bytes, kLen * kElem);
    EXPECT_DOUBLE_EQ(f.stats.global_read_bytes, kLen * kElem);
    EXPECT_DOUBLE_EQ(f.stats.slm_bytes, 2.0 * kLen * kElem);
    EXPECT_DOUBLE_EQ(f.stats.global_write_bytes, 0.0);
    EXPECT_DOUBLE_EQ(f.stats.flops, 4.0 * kLen);
    EXPECT_EQ(f.stats.group_barriers, 1);
}

TEST(Blas, Axpy2MatchesTwoAxpys)
{
    const std::vector<double> x1 = hostile(6);
    const std::vector<double> x2 = hostile(7);
    const std::vector<double> y0 = hostile(8);
    for (const auto& [a1, a2] :
         {std::pair{0.3, 1.7}, std::pair{-2.5, -0.0}, std::pair{0.0, -0.9}}) {
        group_fixture f;
        std::vector<double> want = y0;
        blas::axpy<double>(f.g, a1, f.constant(x1), f.global(want));
        blas::axpy<double>(f.g, a2, f.constant(x2), f.global(want));
        std::vector<double> got = y0;
        blas::axpy2<double>(f.g, a1, f.constant(x1), a2, f.constant(x2),
                            f.global(got));
        EXPECT_TRUE(same_bits(got, want)) << a1 << ' ' << a2;
    }

    // Reads x1 (constant), x2 (global) and y (SLM), writes y: one phase.
    group_fixture f;
    std::vector<double> x2s = x2;
    std::vector<double> y = y0;
    blas::axpy2<double>(f.g, 0.3, f.constant(x1), 1.7, f.global(x2s),
                        f.slm(y));
    EXPECT_DOUBLE_EQ(f.stats.constant_read_bytes, kLen * kElem);
    EXPECT_DOUBLE_EQ(f.stats.global_read_bytes, kLen * kElem);
    EXPECT_DOUBLE_EQ(f.stats.slm_bytes, 2.0 * kLen * kElem);
    EXPECT_DOUBLE_EQ(f.stats.global_write_bytes, 0.0);
    EXPECT_DOUBLE_EQ(f.stats.flops, 4.0 * kLen);
    EXPECT_EQ(f.stats.group_barriers, 1);
}

namespace {

/// Runs `check(view, name)` on one stencil item in each format.
template <typename Check>
void for_each_format(Check&& check)
{
    const auto csr = batchlin::work::stencil_3pt<double>(1, kLen, 9);
    const auto ell = mat::to_ell(csr);
    const auto dense = mat::to_dense(csr);
    check(blas::item_view(csr, 0), "csr");
    check(blas::item_view(ell, 0), "ell");
    check(blas::item_view(dense, 0), "dense");
}

}  // namespace

TEST(Blas, SpmvDotMatchesSpmvThenDot)
{
    const std::vector<double> x = hostile(10);
    std::vector<double> w = hostile(11);
    for_each_format([&](const auto& a, const char* name) {
        for (const reduce_path path : kPaths) {
            group_fixture unfused;
            std::vector<double> xs = x;
            std::vector<double> want(kLen);
            blas::spmv<double>(unfused.g, a, unfused.slm(xs),
                               unfused.slm(want));
            const double want_dot = blas::dot<double>(
                unfused.g, unfused.global(w), unfused.slm(want), path);

            group_fixture fused;
            std::vector<double> got(kLen);
            const double got_dot = blas::spmv_dot<double>(
                fused.g, a, fused.slm(xs), fused.slm(got), fused.global(w),
                path);
            EXPECT_TRUE(same_bits(got, want)) << name;
            EXPECT_TRUE(same_bits(got_dot, want_dot)) << name;

            // The pass moves what spmv and the dot move, less the dot's
            // re-read of y; the reduction's barriers replace the SpMV's.
            const counters& u = unfused.stats;
            const counters& v = fused.stats;
            EXPECT_DOUBLE_EQ(v.slm_bytes, u.slm_bytes - kLen * kElem)
                << name;
            EXPECT_DOUBLE_EQ(v.global_read_bytes, u.global_read_bytes)
                << name;
            EXPECT_DOUBLE_EQ(v.constant_read_bytes, u.constant_read_bytes)
                << name;
            EXPECT_DOUBLE_EQ(v.global_write_bytes, u.global_write_bytes)
                << name;
            EXPECT_DOUBLE_EQ(v.flops, u.flops) << name;
            EXPECT_EQ(v.group_barriers, u.group_barriers - 1) << name;
        }
    });
}

TEST(Blas, SpmvDot2MatchesSpmvThenTwoDots)
{
    const std::vector<double> x = hostile(12);
    std::vector<double> w = hostile(13);
    for_each_format([&](const auto& a, const char* name) {
        for (const reduce_path path : kPaths) {
            group_fixture unfused;
            std::vector<double> xs = x;
            std::vector<double> want(kLen);
            blas::spmv<double>(unfused.g, a, unfused.slm(xs),
                               unfused.slm(want));
            const counters after_spmv = unfused.stats;
            const double want_yy = blas::dot<double>(
                unfused.g, unfused.slm(want), unfused.slm(want), path);
            const double want_yw = blas::dot<double>(
                unfused.g, unfused.slm(want), unfused.global(w), path);
            const std::int64_t reduction_barriers =
                (unfused.stats.group_barriers - after_spmv.group_barriers) /
                2;

            group_fixture fused;
            std::vector<double> got(kLen);
            const auto [got_yy, got_yw] = blas::spmv_dot2<double>(
                fused.g, a, fused.slm(xs), fused.slm(got), fused.global(w),
                path);
            EXPECT_TRUE(same_bits(got, want)) << name;
            EXPECT_TRUE(same_bits(got_yy, want_yy)) << name;
            EXPECT_TRUE(same_bits(got_yw, want_yw)) << name;

            // Less the dots' three re-reads of y; both values are staged
            // as two reductions stage them, but the barriers are paid
            // once, and the SpMV's own barrier goes.
            const counters& u = unfused.stats;
            const counters& v = fused.stats;
            EXPECT_DOUBLE_EQ(v.slm_bytes, u.slm_bytes - 3.0 * kLen * kElem)
                << name;
            EXPECT_DOUBLE_EQ(v.global_read_bytes, u.global_read_bytes)
                << name;
            EXPECT_DOUBLE_EQ(v.constant_read_bytes, u.constant_read_bytes)
                << name;
            EXPECT_DOUBLE_EQ(v.flops, u.flops) << name;
            EXPECT_EQ(v.group_barriers,
                      u.group_barriers - 1 - reduction_barriers)
                << name;
            if (path == reduce_path::group) {
                EXPECT_EQ(reduction_barriers, kTreeBarriers) << name;
            }
        }
    });
}
