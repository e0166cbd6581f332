// The differential oracle's own suite (see oracle.hpp): every serve path
// in launch mode x shards x workers x window x transient faults, and the
// resilient chain on native and fp32 storage, against solo solves of
// generated requests.
#include "oracle.hpp"

#include <set>

namespace {

using std::chrono::microseconds;

/// Every combination of the serve axes other than the launch mode, twice.
/// Path i spells its axes in the digits of i (faults, window, workers,
/// then shards 1/2/4) and serves the mix of seed i; paths i and i + 24
/// share their axes, so the 48 paths together walk every key.
void check_every_serve_path(batchlin::xpu::launch_mode mode)
{
    for (std::uint64_t i = 0; i < 48; ++i) {
        oracle::check_serve_path({mode, batchlin::index_type{1} << (i / 8 % 3),
                                  i / 4 % 2 == 0 ? 1 : 3,
                                  microseconds(i / 2 % 2 * 1000),
                                  i % 2 == 1},
                                 i);
    }
}

}  // namespace

TEST(Oracle, GeneratorWalksEveryKeyAndConditioning)
{
    const std::size_t keys = oracle::all_keys().size();
    std::set<std::string> seen;
    std::set<oracle::conditioning> conds;
    for (std::uint64_t seed = 0; seed < 48; ++seed) {
        for (oracle::request_case c : oracle::generate(seed)) {
            conds.insert(c.cond);
            c.rows = c.items = 0;
            c.seed = 0;
            c.cond = oracle::conditioning::normal;
            seen.insert(oracle::describe(c));
        }
    }
    EXPECT_EQ(seen.size(), keys);
    EXPECT_EQ(conds.size(), 3u);
}

TEST(Oracle, DirectServePathsMatchSoloSolves)
{
    check_every_serve_path(batchlin::xpu::launch_mode::direct);
}

TEST(Oracle, GraphReplayServePathsMatchSoloSolves)
{
    check_every_serve_path(batchlin::xpu::launch_mode::graph_replay);
}

TEST(Oracle, ResilientChainMatchesLoneSolvesOnNativeAndFp32Storage)
{
    for (std::uint64_t seed = 0; seed < 19; ++seed) {
        oracle::check_resilient(seed);
    }
}
