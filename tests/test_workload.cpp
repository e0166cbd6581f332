// Tests for the workload generators: the 3-point stencil scaling input and
// the synthetic PeleLM chemistry mechanisms, which must reproduce Table 4
// exactly (sizes, nnz, number of unique systems) and the documented
// numerical character (non-symmetric, diagonally dominant, shared pattern).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "matrix/properties.hpp"
#include "util/dense_lu.hpp"
#include "matrix/conversions.hpp"
#include "workload/chemistry.hpp"
#include "workload/replicate.hpp"
#include "workload/stencil.hpp"

namespace bl = batchlin;
using batchlin::index_type;
namespace mat = batchlin::mat;
namespace work = batchlin::work;

TEST(Stencil, StructureMatches3PointStencil)
{
    const auto a = work::stencil_3pt<double>(4, 100);
    EXPECT_EQ(a.rows(), 100);
    EXPECT_EQ(a.nnz(), 298);  // 3n - 2 stored entries
    const auto s = mat::analyze_pattern(a);
    EXPECT_EQ(s.bandwidth, 1);
    EXPECT_TRUE(s.full_diagonal);
    EXPECT_TRUE(s.symmetric_pattern);
}

TEST(Stencil, ItemsAreSpdAndDistinct)
{
    const auto a = work::stencil_3pt<double>(8, 32);
    for (index_type b = 0; b < 8; ++b) {
        EXPECT_TRUE(mat::is_symmetric(a, b, 1e-14));
        EXPECT_TRUE(mat::is_diagonally_dominant(a, b));
    }
    // Distinct diagonal shifts.
    std::set<double> diags;
    for (index_type b = 0; b < 8; ++b) {
        diags.insert(a.at(b, 0, 0));
    }
    EXPECT_GT(diags.size(), 4u);
}

TEST(Stencil, DeterministicForSeed)
{
    const auto a = work::stencil_3pt<double>(4, 16, 99);
    const auto b = work::stencil_3pt<double>(4, 16, 99);
    EXPECT_EQ(a.values(), b.values());
    const auto c = work::stencil_3pt<double>(4, 16, 100);
    EXPECT_NE(a.values(), c.values());
}

TEST(Stencil, UnitSolutionRhs)
{
    const auto a = work::stencil_3pt<double>(3, 20);
    const auto b = work::rhs_for_unit_solution(a);
    // Row sums: interior rows = shift, boundary rows = 1 + shift.
    for (index_type item = 0; item < 3; ++item) {
        const double shift = a.at(item, 0, 0) - 2.0;
        EXPECT_NEAR(b.at(item, 5, 0), shift, 1e-14);
        EXPECT_NEAR(b.at(item, 0, 0), 1.0 + shift, 1e-14);
    }
}

TEST(Chemistry, Table4RowsExact)
{
    const auto mechs = work::pele_mechanisms();
    ASSERT_EQ(mechs.size(), 5u);
    struct row {
        const char* name;
        index_type unique, rows, nnz;
    };
    const row expected[] = {
        {"drm19", 67, 22, 438},        {"gri12", 73, 33, 978},
        {"gri30", 90, 54, 2560},       {"dodecane_lu", 78, 54, 2332},
        {"isooctane", 72, 144, 6135},
    };
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(mechs[i].name, expected[i].name);
        EXPECT_EQ(mechs[i].num_unique, expected[i].unique);
        EXPECT_EQ(mechs[i].rows, expected[i].rows);
        EXPECT_EQ(mechs[i].nnz, expected[i].nnz);
    }
    EXPECT_THROW(work::mechanism_by_name("unknown"), bl::error);
}

class MechanismGeneration
    : public ::testing::TestWithParam<const char*> {};

TEST_P(MechanismGeneration, MatchesTable4AndDocumentedCharacter)
{
    const work::mechanism mech = work::mechanism_by_name(GetParam());
    const auto a = work::generate_mechanism<double>(mech);
    // Exact Table 4 reproduction.
    EXPECT_EQ(a.num_batch_items(), mech.num_unique);
    EXPECT_EQ(a.rows(), mech.rows);
    EXPECT_EQ(a.cols(), mech.rows);
    EXPECT_EQ(a.nnz(), mech.nnz);
    a.validate();
    const auto s = mat::analyze_pattern(a);
    EXPECT_TRUE(s.full_diagonal);
    // Non-SPD (the reason the paper can only use BatchBicgstab, §4.3).
    EXPECT_FALSE(mat::is_symmetric(a, 0, 1e-10));
    // Diagonally dominant BDF-Jacobian character.
    for (index_type b = 0; b < std::min<index_type>(a.num_batch_items(), 8);
         ++b) {
        EXPECT_TRUE(mat::is_diagonally_dominant(a, b)) << "item " << b;
    }
}

INSTANTIATE_TEST_SUITE_P(Table4, MechanismGeneration,
                         ::testing::Values("drm19", "gri12", "gri30",
                                           "dodecane_lu", "isooctane"));

TEST(Chemistry, UniqueItemsAreWellConditionedEnough)
{
    const auto a = work::generate_mechanism<double>(
        work::mechanism_by_name("drm19"));
    const auto dense = mat::to_dense(a);
    for (index_type b = 0; b < 4; ++b) {
        std::vector<double> m(dense.item_values(b),
                              dense.item_values(b) + dense.item_size());
        const double cond =
            bl::condition_number_inf<double>(a.rows(), m);
        EXPECT_LT(cond, 1e4) << "item " << b;
    }
}

TEST(Chemistry, BatchReplicationCyclesUniqueItems)
{
    const work::mechanism mech = work::mechanism_by_name("drm19");
    const auto batch = work::generate_mechanism_batch<double>(mech, 200);
    EXPECT_EQ(batch.num_batch_items(), 200);
    EXPECT_EQ(batch.nnz(), mech.nnz);
    // Items one unique-cycle apart share values up to the perturbation.
    const index_type stride = mech.num_unique;
    for (index_type k = 0; k < batch.nnz(); k += 37) {
        const double v0 = batch.item_values(0)[k];
        const double v1 = batch.item_values(stride)[k];
        EXPECT_NEAR(v1, v0, std::abs(v0) * 5e-3 + 1e-12);
    }
}

TEST(Replicate, ExactCopiesWithoutPerturbation)
{
    const auto unique = work::stencil_3pt<double>(3, 8);
    const auto batch = work::replicate(unique, 7, 0.0);
    EXPECT_EQ(batch.num_batch_items(), 7);
    for (index_type b = 0; b < 7; ++b) {
        const index_type src = b % 3;
        for (index_type k = 0; k < unique.nnz(); ++k) {
            EXPECT_EQ(batch.item_values(b)[k], unique.item_values(src)[k]);
        }
    }
}

TEST(Replicate, SliceExtractsSubBatch)
{
    const auto batch = work::stencil_3pt<double>(10, 8);
    const auto part = work::slice(batch, 4, 9);
    EXPECT_EQ(part.num_batch_items(), 5);
    EXPECT_EQ(part.row_ptrs(), batch.row_ptrs());
    for (index_type k = 0; k < batch.nnz(); ++k) {
        EXPECT_EQ(part.item_values(0)[k], batch.item_values(4)[k]);
    }
    EXPECT_THROW(work::slice(batch, 8, 12), bl::dimension_mismatch);

    const auto rhs = work::random_rhs<double>(10, 8, 1);
    const auto rhs_part = work::slice(rhs, 4, 9);
    EXPECT_EQ(rhs_part.num_batch_items(), 5);
    EXPECT_EQ(rhs_part.at(0, 3, 0), rhs.at(4, 3, 0));
}

TEST(Chemistry, GenerationIsDeterministic)
{
    const work::mechanism mech = work::mechanism_by_name("gri12");
    const auto a = work::generate_mechanism<double>(mech, 7);
    const auto b = work::generate_mechanism<double>(mech, 7);
    EXPECT_EQ(a.values(), b.values());
    EXPECT_EQ(a.col_idxs(), b.col_idxs());
}

namespace {

/// FNV-1a over the bytes of each index, in order.
std::uint64_t fnv1a(std::uint64_t h, const std::vector<index_type>& v)
{
    for (const index_type x : v) {
        const auto u = static_cast<std::uint32_t>(x);
        for (int byte = 0; byte < 4; ++byte) {
            h ^= (u >> (8 * byte)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

}  // namespace

TEST(Chemistry, SmallBatchMatchesFullUniqueGeneration)
{
    // A batch of n cells reads only its first min(n, num_unique) uniques:
    // generating just those must give the same batch, bit for bit, as
    // replicating the full unique set.
    for (const work::mechanism& mech : work::pele_mechanisms()) {
        for (const std::uint64_t seed : {1234ull, 99ull}) {
            const auto unique = work::generate_mechanism<double>(mech, seed);
            for (const index_type n :
                 {1, 4, 8, mech.num_unique - 1, mech.num_unique,
                  mech.num_unique + 5}) {
                SCOPED_TRACE(mech.name + " seed " + std::to_string(seed) +
                             " n " + std::to_string(n));
                const auto batch =
                    work::generate_mechanism_batch<double>(mech, n, seed);
                const auto expected =
                    work::replicate(unique, n, 1e-3, seed ^ 0x9e3779b9u);
                EXPECT_EQ(batch.num_batch_items(), n);
                EXPECT_EQ(batch.row_ptrs(), expected.row_ptrs());
                EXPECT_EQ(batch.col_idxs(), expected.col_idxs());
                EXPECT_EQ(batch.values(), expected.values());
            }
        }
    }
}

TEST(Chemistry, PatternIsPinned)
{
    // FNV-1a of row_ptrs then col_idxs at seed 1234. A change here moves
    // every generated matrix, and with it iteration counts and the
    // benchmark's modeled time.
    const std::pair<const char*, std::uint64_t> pinned[] = {
        {"drm19", 0x871ebd2d1c8a66d0ull},
        {"gri12", 0xce8692362f913f6full},
        {"gri30", 0x3424ac1194c5408full},
        {"dodecane_lu", 0x6ad7d9c4a2efdd8bull},
        {"isooctane", 0x35aaa84981f0357full},
    };
    for (const auto& [name, hash] : pinned) {
        const auto a =
            work::generate_mechanism<double>(work::mechanism_by_name(name));
        const std::uint64_t h =
            fnv1a(fnv1a(0xcbf29ce484222325ull, a.row_ptrs()), a.col_idxs());
        EXPECT_EQ(h, hash) << name << std::hex << " 0x" << h;
    }
}
