// Tick arithmetic at the edges of int32. The benchmark grid, the online
// benchmark schedule and the extension walks all step one hop (or one tick)
// past the data; with data ending within ⌊k/2⌋ of INT32_MAX that step
// leaves int32, and a 32-bit cursor wraps (the grid loop never ends). The
// online miner must also accept INT32_MIN, its "no tick yet" sentinel, as
// a first tick. Mining is shift-invariant, so the same dataset moved to
// either end of the tick domain must yield the same convoys, moved alike —
// from batch, sharded and online mining, and from the gold oracle. A
// sparse dataset spanning the whole int32 domain must also load, read and
// mine alike on every storage engine.
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/gold.h"
#include "core/k2hop.h"
#include "core/online.h"
#include "core/partition.h"
#include "gen/synthetic.h"
#include "storage/lsm_store.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::MakeMemStore;
using ::k2::testing::ScratchDir;
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
                          int num_threads, K2HopStats* stats = nullptr) {
  auto store = MakeMemStore(data);
  K2HopOptions options;
  options.num_threads = num_threads;
  auto result = MineK2Hop(store.get(), params, options, stats);
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
  /// gold oracle must return the tick-0 convoys moved alike. Validation
  /// must read FC-ledger facts there too: their tick runs reach both ends
  /// of int32.
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
    K2HopStats stats;
    EXPECT_EQ(Batch(moved, params, 1, &stats), expected) << Str(expected);
    EXPECT_GT(stats.validation.proven_ticks, 0u);
    EXPECT_EQ(Batch(moved, params, 4, &stats), expected);
    EXPECT_GT(stats.validation.proven_ticks, 0u);
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

// Ticks at INT32_MIN, -1, 0 and INT32_MAX: a span of 2^32 ticks over four
// snapshots. Every engine, bulk-loaded or fed tick by tick through Append,
// must report the memory store's timestamps(), answer ScanTimestamp and
// GetPoints alike at the data ticks and between them, and mine the same
// convoys. The LSM store runs with a 7-row memtable and fan-out 2, so the
// appended ticks spread over flushed, compacted tables and the memtable,
// keyed from both ends of the (t, oid) key space. k keeps the benchmark
// grid over the 2^32-tick span at 4096 points.
TEST(TickSpanTest, SparseTicksAcrossInt32ReadAndMineAlikeOnEveryEngine) {
  DatasetBuilder builder;
  for (Timestamp t : {static_cast<Timestamp>(kMin), Timestamp{-1},
                      Timestamp{0}, static_cast<Timestamp>(kMax)}) {
    for (ObjectId oid = 0; oid < 6; ++oid) {
      // Objects 0-2 and 3-5 form two groups; object 5 leaves at tick 0.
      const double x = oid < 3 ? 0.5 * oid : 100.0 + 0.5 * oid;
      builder.Add(t, oid, x + (t == 0 && oid == 5 ? 50.0 : 0.0), 1.0);
    }
  }
  const Dataset data = builder.Build();
  const MiningParams params{2, 1 << 21, 1.0};
  auto memory = MakeMemStore(data);
  const std::vector<Convoy> expected = [&] {
    auto r = MineK2Hop(memory.get(), params);
    K2_CHECK_OK(r.status());
    return r.MoveValue();
  }();
  const Timestamp probes[] = {static_cast<Timestamp>(kMin),
                              static_cast<Timestamp>(kMin + 1),
                              -2,
                              -1,
                              0,
                              1,
                              static_cast<Timestamp>(kMax - 1),
                              static_cast<Timestamp>(kMax)};
  const ObjectSet objects = ObjectSet::Of({0, 2, 4, 5, 7});

  for (StoreKind kind : {StoreKind::kMemory, StoreKind::kFile,
                         StoreKind::kBPlusTree, StoreKind::kLsm}) {
    for (bool append : {false, true}) {
      SCOPED_TRACE(std::string(StoreKindName(kind)) +
                   (append ? " appended" : " bulk-loaded"));
      const std::string dir = ScratchDir("tick_span");
      std::unique_ptr<Store> store;
      if (kind == StoreKind::kLsm) {
        LsmStoreOptions options;
        options.memtable_limit = 7;
        options.tier_fanout = 2;
        options.background_compaction = false;
        store = std::make_unique<LsmStore>(dir, options);
      } else {
        auto created = CreateStore(kind, dir);
        ASSERT_TRUE(created.ok()) << created.status().ToString();
        store = created.MoveValue();
      }
      if (append) {
        for (Timestamp t : data.timestamps()) {
          ASSERT_TRUE(store->Append(t, SnapshotPoints(data, t)).ok());
        }
      } else {
        ASSERT_TRUE(store->BulkLoad(data).ok());
      }
      EXPECT_EQ(store->timestamps(), data.timestamps());
      EXPECT_EQ(store->time_range(), data.time_range());
      EXPECT_EQ(store->num_points(), data.num_points());
      std::vector<SnapshotPoint> got, want;
      for (Timestamp t : probes) {
        ASSERT_TRUE(store->ScanTimestamp(t, &got).ok());
        ASSERT_TRUE(memory->ScanTimestamp(t, &want).ok());
        EXPECT_EQ(got, want) << "scan of tick " << t;
        ASSERT_TRUE(store->GetPoints(t, objects, &got).ok());
        ASSERT_TRUE(memory->GetPoints(t, objects, &want).ok());
        EXPECT_EQ(got, want) << "points of tick " << t;
      }
      auto mined = MineK2Hop(store.get(), params);
      ASSERT_TRUE(mined.ok()) << mined.status().ToString();
      EXPECT_EQ(mined.value(), expected) << Str(expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TickRangeTest, ::testing::Values(3u, 11u, 29u));

}  // namespace
}  // namespace k2
