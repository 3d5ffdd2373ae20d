// Tick arithmetic at the edges of int32. The benchmark grid, the online
// benchmark schedule and the extension walks all step one hop (or one tick)
// past the data; with data ending within ⌊k/2⌋ of INT32_MAX that step
// leaves int32, and a 32-bit cursor wraps (the grid loop never ends). The
// online miner must also accept INT32_MIN, its "no tick yet" sentinel, as
// a first tick. Mining is shift-invariant, so the same dataset moved to
// either end of the tick domain must yield the same convoys, moved alike —
// from batch, sharded and online mining, and from the gold oracle.
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/gold.h"
#include "core/k2hop.h"
#include "core/online.h"
#include "core/partition.h"
#include "gen/synthetic.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::MakeMemStore;
using ::k2::testing::Str;

constexpr int64_t kMin = std::numeric_limits<Timestamp>::min();
constexpr int64_t kMax = std::numeric_limits<Timestamp>::max();
constexpr int kTicks = 40;

Dataset Shifted(const Dataset& data, int64_t offset) {
  DatasetBuilder builder;
  for (const PointRecord& r : data.records()) {
    builder.Add(static_cast<Timestamp>(r.t + offset), r.oid, r.x, r.y);
  }
  return builder.Build();
}

std::vector<Convoy> Shifted(const std::vector<Convoy>& convoys,
                            int64_t offset) {
  std::vector<Convoy> out;
  for (const Convoy& v : convoys) {
    out.emplace_back(v.objects, static_cast<Timestamp>(v.start + offset),
                     static_cast<Timestamp>(v.end + offset));
  }
  return out;
}

std::vector<Convoy> Batch(const Dataset& data, const MiningParams& params,
                          int num_threads) {
  auto store = MakeMemStore(data);
  K2HopOptions options;
  options.num_threads = num_threads;
  auto result = MineK2Hop(store.get(), params, options);
  K2_CHECK_OK(result.status());
  return result.MoveValue();
}

std::vector<Convoy> Sharded(const Dataset& data, const MiningParams& params) {
  auto store = MakeMemStore(data);
  PartitionedK2HopOptions options;
  options.num_shards = 3;
  options.num_threads = 2;
  auto result = MinePartitionedK2Hop(store.get(), params, options);
  K2_CHECK_OK(result.status());
  return result.MoveValue();
}

std::vector<Convoy> Online(const Dataset& data, const MiningParams& params) {
  MemoryStore store;
  OnlineK2HopMiner miner(&store, params);
  for (Timestamp t : data.timestamps()) {
    K2_CHECK_OK(miner.AppendTick(t, SnapshotPoints(data, t)));
  }
  auto result = miner.Finalize();
  K2_CHECK_OK(result.status());
  return result.MoveValue();
}

class TickRangeTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  /// Mines dense random walks (chance convoys that split, merge, and touch
  /// both ends of the data, so walks run into the dataset boundary) at
  /// ticks [0, kTicks) and again moved by `offset`; every miner and the
  /// gold oracle must return the tick-0 convoys moved alike.
  void ExpectShiftInvariant(int64_t offset) const {
    RandomWalkSpec spec;
    spec.num_objects = 12;
    spec.num_ticks = kTicks;
    spec.area = 12.0;
    spec.step = 2.0;
    spec.seed = GetParam();
    const Dataset data = GenerateRandomWalk(spec);
    const MiningParams params{3, 10, 5.0};
    const std::vector<Convoy> reference = Batch(data, params, 1);
    ASSERT_FALSE(reference.empty()) << "weak test input";

    const Dataset moved = Shifted(data, offset);
    const std::vector<Convoy> expected = Shifted(reference, offset);
    EXPECT_SAME_CONVOYS(GoldFullyConnectedConvoys(moved, params), expected);
    EXPECT_EQ(Batch(moved, params, 1), expected) << Str(expected);
    EXPECT_EQ(Batch(moved, params, 4), expected);
    EXPECT_EQ(Sharded(moved, params), expected);
    EXPECT_EQ(Online(moved, params), expected);
  }
};

TEST_P(TickRangeTest, DataEndingAtInt32MaxMinesLikeTickZero) {
  ExpectShiftInvariant(kMax - (kTicks - 1));
}

TEST_P(TickRangeTest, DataStartingAtInt32MinMinesLikeTickZero) {
  ExpectShiftInvariant(kMin);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TickRangeTest, ::testing::Values(3u, 11u, 29u));

}  // namespace
}  // namespace k2
