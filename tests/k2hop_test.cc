// Unit tests for the k/2-hop phases, including the paper's own worked
// examples: the Sec. 4.2 candidate-cluster intersection, the Table 2 / Fig. 6
// HWMT run, and the Fig. 5 / Table 3 merge.
#include <gtest/gtest.h>

#include "baselines/gold.h"
#include "cluster/store_clustering.h"
#include "common/rng.h"
#include "core/k2hop.h"
#include "gen/synthetic.h"
#include "storage/memory_store.h"
#include "storage/store.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::C;
using ::k2::testing::kGone;
using ::k2::testing::MakeMemStore;
using ::k2::testing::MakeTracks;
using ::k2::testing::ScratchDir;

// ---------------------------------------------------------------------------
// BenchmarkPoints (Lemma 3 coverage)
// ---------------------------------------------------------------------------

TEST(BenchmarkPointsTest, SpacingIsFloorKHalf) {
  EXPECT_EQ(BenchmarkPoints({0, 16}, 8),
            (std::vector<Timestamp>{0, 4, 8, 12, 16}));
  EXPECT_EQ(BenchmarkPoints({0, 10}, 5),
            (std::vector<Timestamp>{0, 2, 4, 6, 8, 10}));
}

TEST(BenchmarkPointsTest, KEqualTwoMakesEveryTickABenchmark) {
  EXPECT_EQ(BenchmarkPoints({3, 6}, 2), (std::vector<Timestamp>{3, 4, 5, 6}));
}

TEST(BenchmarkPointsTest, EmptyRange) {
  EXPECT_TRUE(BenchmarkPoints({0, -1}, 8).empty());
}

TEST(BenchmarkPointsTest, Lemma3EveryKWindowContainsTwoConsecutive) {
  // For any placement of a length-k interval inside the range, at least two
  // consecutive benchmark points must fall inside it.
  for (int k = 2; k <= 12; ++k) {
    const TimeRange range{0, 60};
    const std::vector<Timestamp> b = BenchmarkPoints(range, k);
    for (Timestamp s = range.start; s + k - 1 <= range.end; ++s) {
      const Timestamp e = s + k - 1;
      int longest_consecutive = 0, run = 0;
      for (size_t i = 0; i < b.size(); ++i) {
        if (b[i] >= s && b[i] <= e) {
          run = (i > 0 && b[i - 1] >= s) ? run + 1 : 1;
          longest_consecutive = std::max(longest_consecutive, run);
        }
      }
      ASSERT_GE(longest_consecutive, 2)
          << "k=" << k << " window [" << s << "," << e << "]";
    }
  }
}

// ---------------------------------------------------------------------------
// CandidateClusters — the paper's Sec. 4.2 example
// ---------------------------------------------------------------------------

TEST(CandidateClustersTest, PaperSection42Example) {
  // C1 = {{a,b,c,d},{e,f,g,h},{i,j,k}}, C2 = {{a,b,c},{d,e},{f,g,h},{i,j}}
  // with a..k = 1..11; for m=3 the candidate set is {{a,b,c},{f,g,h}}.
  const std::vector<ObjectSet> c1 = {ObjectSet::Of({1, 2, 3, 4}),
                                     ObjectSet::Of({5, 6, 7, 8}),
                                     ObjectSet::Of({9, 10, 11})};
  const std::vector<ObjectSet> c2 = {
      ObjectSet::Of({1, 2, 3}), ObjectSet::Of({4, 5}), ObjectSet::Of({6, 7, 8}),
      ObjectSet::Of({9, 10})};
  const std::vector<ObjectSet> cc = CandidateClusters(c1, c2, 3);
  ASSERT_EQ(cc.size(), 2u);
  EXPECT_EQ(cc[0], ObjectSet::Of({1, 2, 3}));
  EXPECT_EQ(cc[1], ObjectSet::Of({6, 7, 8}));
}

// Reference implementation of CandidateClusters before the hash-join
// rewrite: all-pairs merge intersections. The randomized property test
// below pins the rewrite to it on disjoint cluster sets.
std::vector<ObjectSet> CandidateClustersAllPairs(
    const std::vector<ObjectSet>& left, const std::vector<ObjectSet>& right,
    int m) {
  std::vector<ObjectSet> out;
  for (const ObjectSet& a : left) {
    for (const ObjectSet& b : right) {
      ObjectSet x = ObjectSet::Intersect(a, b);
      if (x.size() >= static_cast<size_t>(m)) out.push_back(std::move(x));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Random partition of a subset of [0, universe) into disjoint clusters —
// the shape DBSCAN output always has within one tick.
std::vector<ObjectSet> RandomDisjointClusters(Rng* rng, ObjectId universe,
                                              int max_clusters) {
  std::vector<ObjectId> ids;
  for (ObjectId oid = 0; oid < universe; ++oid) {
    if (rng->NextInt(3) != 0) ids.push_back(oid);  // ~2/3 of objects present
  }
  // Shuffle, then cut into random contiguous chunks.
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng->NextInt(i)]);
  }
  std::vector<ObjectSet> clusters;
  size_t at = 0;
  const int n_clusters = 1 + static_cast<int>(rng->NextInt(max_clusters));
  for (int c = 0; c < n_clusters && at < ids.size(); ++c) {
    const size_t remaining = ids.size() - at;
    const size_t take = c + 1 == n_clusters
                            ? remaining
                            : 1 + rng->NextInt(remaining);
    clusters.push_back(ObjectSet(std::vector<ObjectId>(
        ids.begin() + at, ids.begin() + at + take)));
    at += take;
  }
  return clusters;
}

TEST(CandidateClustersTest, HashJoinMatchesAllPairsOnRandomPartitions) {
  Rng rng(20260726);
  for (int trial = 0; trial < 200; ++trial) {
    const ObjectId universe = 2 + static_cast<ObjectId>(rng.NextInt(60));
    const std::vector<ObjectSet> left =
        RandomDisjointClusters(&rng, universe, 6);
    const std::vector<ObjectSet> right =
        RandomDisjointClusters(&rng, universe, 6);
    const int m = 2 + static_cast<int>(rng.NextInt(4));
    const std::vector<ObjectSet> joined = CandidateClusters(left, right, m);
    const std::vector<ObjectSet> reference =
        CandidateClustersAllPairs(left, right, m);
    ASSERT_EQ(joined, reference)
        << "trial " << trial << ": universe=" << universe << " m=" << m
        << " left=" << left.size() << " right=" << right.size();
  }
}

TEST(CandidateClustersTest, EmptyWhenNothingSurvives) {
  EXPECT_TRUE(CandidateClusters({ObjectSet::Of({1, 2})},
                                {ObjectSet::Of({3, 4})}, 2)
                  .empty());
}

// ---------------------------------------------------------------------------
// HWMT — the paper's Fig. 6 / Table 2 example
// ---------------------------------------------------------------------------

// Objects a..j=0..9, x,y,z=10,11,12, m,n,o=13,14,15. Benchmarks b0=0, b1=8
// (k=16). At t=0: {a..j}, {x,y,z}, {m,n,o} cluster; at t=8: {a,b,c,d} and
// {x,y,z}. Candidates: {a,b,c,d} and {x,y,z}. Inside the window {a,b,c,d}
// stay together while {x,y,z} disperse at t=4 => HWMT returns {{a,b,c,d}}.
class HwmtPaperExample : public ::testing::Test {
 protected:
  Dataset MakeData() {
    std::vector<std::vector<double>> tracks;
    // a,b,c,d: together the whole window at x = 0,1,2,3 (eps=1.5 chain).
    for (int i = 0; i < 4; ++i) tracks.push_back(std::vector<double>(9, i * 1.0));
    // e..j: with the a-cluster at t=0 only, then far away, each on its own.
    for (int i = 4; i < 10; ++i) {
      std::vector<double> track(9, 1000.0 + i * 500.0);
      track[0] = 4.0 + (i - 4) * 1.0;
      tracks.push_back(track);
    }
    // x,y,z (10..12): together at t=0..3 and at t=8, dispersed at t=4..7.
    for (int i = 10; i < 13; ++i) {
      std::vector<double> track(9, 0.0);
      for (int t = 0; t <= 8; ++t) {
        const double base = 100.0 + (i - 10) * 1.0;
        if (t >= 4 && t <= 7) {
          track[t] = 2000.0 + i * 300.0 + t * 7.0;  // dispersed
        } else {
          track[t] = base;
        }
      }
      tracks.push_back(track);
    }
    // m,n,o (13..15): together at t=0 only, absent afterwards.
    for (int i = 13; i < 16; ++i) {
      std::vector<double> track(9, kGone);
      track[0] = 200.0 + (i - 13) * 1.0;
      tracks.push_back(track);
    }
    return MakeTracks(tracks);
  }
  const MiningParams params_{3, 16, 1.5};
};

TEST_F(HwmtPaperExample, CandidateClustersMatchPaper) {
  auto store = MakeMemStore(MakeData());
  SnapshotScratch scratch;
  auto c0 = ClusterSnapshot(store.get(), 0, params_, &scratch);
  auto c8 = ClusterSnapshot(store.get(), 8, params_, &scratch);
  ASSERT_TRUE(c0.ok() && c8.ok());
  ASSERT_EQ(c0.value().size(), 3u);  // {a..j}, {x,y,z}, {m,n,o}
  ASSERT_EQ(c8.value().size(), 2u);  // {a,b,c,d}, {x,y,z}
  const auto cc = CandidateClusters(c0.value(), c8.value(), params_.m);
  ASSERT_EQ(cc.size(), 2u);
  EXPECT_EQ(cc[0], ObjectSet::Of({0, 1, 2, 3}));
  EXPECT_EQ(cc[1], ObjectSet::Of({10, 11, 12}));
}

TEST_F(HwmtPaperExample, HwmtPrunesCoincidentalCluster) {
  auto store = MakeMemStore(MakeData());
  const std::vector<ObjectSet> cc = {ObjectSet::Of({0, 1, 2, 3}),
                                     ObjectSet::Of({10, 11, 12})};
  auto spanning = HwmtSpanning(store.get(), params_, 0, 8, cc);
  ASSERT_TRUE(spanning.ok());
  ASSERT_EQ(spanning.value().size(), 1u);
  EXPECT_EQ(spanning.value()[0], ObjectSet::Of({0, 1, 2, 3}));
}

TEST_F(HwmtPaperExample, LeftToRightOrderFindsTheSameSpanningConvoys) {
  auto store = MakeMemStore(MakeData());
  const std::vector<ObjectSet> cc = {ObjectSet::Of({0, 1, 2, 3}),
                                     ObjectSet::Of({10, 11, 12})};
  auto binary = HwmtSpanning(store.get(), params_, 0, 8, cc, true);
  auto linear = HwmtSpanning(store.get(), params_, 0, 8, cc, false);
  ASSERT_TRUE(binary.ok() && linear.ok());
  EXPECT_EQ(binary.value(), linear.value());
}

TEST(HwmtTest, EmptyCandidatesShortCircuit) {
  auto store = MakeMemStore(MakeTracks({{0, 0, 0}, {0, 0, 0}}));
  auto spanning = HwmtSpanning(store.get(), {2, 2, 1.0}, 0, 2, {});
  ASSERT_TRUE(spanning.ok());
  EXPECT_TRUE(spanning.value().empty());
}

TEST(HwmtTest, AdjacentBenchmarksHaveNoInterior) {
  // Hop = 1: candidates pass through untouched (no interior ticks).
  auto store = MakeMemStore(MakeTracks({{0, 0}, {0.5, 0.5}}));
  const std::vector<ObjectSet> cc = {ObjectSet::Of({0, 1})};
  auto spanning = HwmtSpanning(store.get(), {2, 2, 1.0}, 0, 1, cc);
  ASSERT_TRUE(spanning.ok());
  EXPECT_EQ(spanning.value(), cc);
}

// ---------------------------------------------------------------------------
// Merge — the paper's Fig. 5 / Table 3 example
// ---------------------------------------------------------------------------

TEST(MergeTest, PaperTable3Example) {
  // Objects a..k = 1..11. Four hop-windows [b0,b1],[b1,b2],[b2,b3],[b3,b4].
  // H0: {a,b,c,d}, {e,f,g,h}, {i,j,k}
  // H1: {a,b,c,d}, {e,f},{g,h}
  // H2: {a,b,e,f}, {c,d,g,h}, {i,j,k}
  // H3: {a,b}, {c,d,g,h}, {e,f}
  const std::vector<Timestamp> benchmarks{0, 4, 8, 12, 16};
  const std::vector<std::vector<ObjectSet>> spanning = {
      {ObjectSet::Of({1, 2, 3, 4}), ObjectSet::Of({5, 6, 7, 8}),
       ObjectSet::Of({9, 10, 11})},
      {ObjectSet::Of({1, 2, 3, 4}), ObjectSet::Of({5, 6}),
       ObjectSet::Of({7, 8})},
      {ObjectSet::Of({1, 2, 5, 6}), ObjectSet::Of({3, 4, 7, 8}),
       ObjectSet::Of({9, 10, 11})},
      {ObjectSet::Of({1, 2}), ObjectSet::Of({3, 4, 7, 8}),
       ObjectSet::Of({5, 6})},
  };
  const std::vector<Convoy> merged =
      MergeSpanningConvoys(spanning, benchmarks, 2);
  // Expected maximal spanning convoys (Table 3, final column plus the
  // finished rows of earlier columns):
  const std::vector<Convoy> expected = FilterMaximal({
      C({1, 2, 3, 4}, 0, 8),   // {a,b,c,d} [b0,b2]
      C({5, 6, 7, 8}, 0, 4),   // {e,f,g,h} [b0,b1]
      C({9, 10, 11}, 0, 4),    // {i,j,k}   [b0,b1]
      C({1, 2}, 0, 16),        // {a,b}     [b0,b4]
      C({3, 4}, 0, 16),        // {c,d}     [b0,b4]
      C({5, 6}, 0, 16),        // {e,f}     [b0,b4]
      C({7, 8}, 0, 16),        // {g,h}     [b0,b4]
      C({3, 4, 7, 8}, 8, 16),  // {c,d,g,h} [b2,b4]
      C({1, 2, 5, 6}, 8, 12),  // {a,b,e,f} [b2,b3]
      C({9, 10, 11}, 8, 12),   // {i,j,k}   [b2,b3]
  });
  EXPECT_SAME_CONVOYS(merged, expected);
}

TEST(MergeTest, EmptyWindowBreaksChains) {
  const std::vector<Timestamp> benchmarks{0, 4, 8};
  const std::vector<std::vector<ObjectSet>> spanning = {
      {ObjectSet::Of({1, 2})}, {}};
  const auto merged = MergeSpanningConvoys(spanning, benchmarks, 2);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], C({1, 2}, 0, 4));
}

TEST(MergeTest, NoWindows) {
  EXPECT_TRUE(MergeSpanningConvoys({}, {0}, 2).empty());
}

// ---------------------------------------------------------------------------
// Extension
// ---------------------------------------------------------------------------

TEST(ExtendTest, RightExtensionFindsActualEnd) {
  // {0,1} together t=0..6, apart from t=7.
  auto store = MakeMemStore(MakeTracks({{0, 0, 0, 0, 0, 0, 0, 50, 50, 50},
                                        {0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5,
                                         99, 99, 99}}));
  auto out = ExtendRight(store.get(), {2, 4, 1.0}, {C({0, 1}, 0, 4)}, 9);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value()[0], C({0, 1}, 0, 6));
}

TEST(ExtendTest, LeftExtensionFindsActualStart) {
  auto store = MakeMemStore(MakeTracks({{50, 0, 0, 0, 0, 0}, {99, 0.5, 0.5, 0.5, 0.5, 0.5}}));
  auto out = ExtendLeft(store.get(), {2, 3, 1.0}, {C({0, 1}, 3, 5)}, 0);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value()[0], C({0, 1}, 1, 5));
}

TEST(ExtendTest, SplitDuringExtensionKeepsBothPieces) {
  // {0,1,2} together t=0..3; at t=4..5 only {0,1} stay together.
  auto store = MakeMemStore(MakeTracks({{0, 0, 0, 0, 0, 0},
                                        {0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
                                        {1.0, 1.0, 1.0, 1.0, 77, 77}}));
  auto out = ExtendRight(store.get(), {2, 2, 1.0}, {C({0, 1, 2}, 0, 3)}, 5);
  ASSERT_TRUE(out.ok());
  const std::vector<Convoy> expected = {C({0, 1}, 0, 5), C({0, 1, 2}, 0, 3)};
  EXPECT_SAME_CONVOYS(out.value(), expected);
}

TEST(ExtendTest, ExtensionStopsAtDatasetBoundary) {
  auto store = MakeMemStore(MakeTracks({{0, 0, 0}, {0.5, 0.5, 0.5}}));
  auto out = ExtendRight(store.get(), {2, 2, 1.0}, {C({0, 1}, 0, 1)}, 2);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value()[0], C({0, 1}, 0, 2));
}

// ---------------------------------------------------------------------------
// End-to-end driver behaviour
// ---------------------------------------------------------------------------

TEST(K2HopTest, RangeShorterThanKYieldsNothing) {
  auto store = MakeMemStore(MakeTracks({{0, 0}, {0.5, 0.5}}));
  auto out = MineK2Hop(store.get(), {2, 5, 1.0});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().empty());
}

TEST(K2HopTest, InvalidParamsRejected) {
  auto store = MakeMemStore(MakeTracks({{0, 0}}));
  EXPECT_FALSE(MineK2Hop(store.get(), {1, 5, 1.0}).ok());
  EXPECT_FALSE(MineK2Hop(store.get(), {2, 0, 1.0}).ok());
  EXPECT_FALSE(MineK2Hop(store.get(), {2, 5, -1.0}).ok());
}

TEST(K2HopTest, StatsAreFilled) {
  // A clean convoy over 12 ticks plus scattered noise.
  std::vector<std::vector<double>> tracks = {
      std::vector<double>(12, 0.0), std::vector<double>(12, 0.5)};
  for (int n = 0; n < 6; ++n) {
    std::vector<double> noise;
    for (int t = 0; t < 12; ++t) noise.push_back(500.0 + 97.0 * n + 13.0 * t);
    tracks.push_back(noise);
  }
  auto store = MakeMemStore(MakeTracks(tracks));
  K2HopStats stats;
  auto out = MineK2Hop(store.get(), {2, 6, 1.0}, {}, &stats);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value()[0], C({0, 1}, 0, 11));

  EXPECT_EQ(stats.benchmark_points, 4u);  // ticks 0,3,6,9 with k=6
  EXPECT_EQ(stats.hop_windows, 3u);
  EXPECT_GT(stats.candidate_clusters, 0u);
  EXPECT_GT(stats.prevalidation_convoys, 0u);
  EXPECT_EQ(stats.total_points, store->num_points());
  EXPECT_GT(stats.points_processed(), 0u);
  EXPECT_GT(stats.pruning_ratio(), 0.0);  // noise was pruned
  EXPECT_GT(stats.phases.Total(), 0.0);
  EXPECT_GE(stats.phases.Get("HWMT"), 0.0);
}

TEST(K2HopTest, PrunesNoiseObjectsFromPointReads) {
  // 2 convoy objects + 30 noise objects; HWMT point reads should only ever
  // touch candidate objects, so the pruning ratio must be high.
  std::vector<std::vector<double>> tracks = {std::vector<double>(20, 0.0),
                                             std::vector<double>(20, 0.4)};
  for (int n = 0; n < 30; ++n) {
    std::vector<double> noise;
    for (int t = 0; t < 20; ++t) noise.push_back(300.0 + n * 41.0 + t * 17.0);
    tracks.push_back(noise);
  }
  auto store = MakeMemStore(MakeTracks(tracks));
  // One thread: the paper's points processed. Shards each re-scan their
  // boundary benchmark tick in full, so sharded IO depends on the core
  // count.
  K2HopOptions options;
  options.num_threads = 1;
  K2HopStats stats;
  auto out = MineK2Hop(store.get(), {2, 8, 1.0}, options, &stats);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_GT(stats.pruning_ratio(), 0.5);
}

TEST(K2HopTest, ValidateFalseReturnsPartiallyConnectedCandidates) {
  auto store = MakeMemStore(MakeTracks({std::vector<double>(10, 0.0),
                                        std::vector<double>(10, 0.5)}));
  K2HopOptions options;
  options.validate = false;
  auto out = MineK2Hop(store.get(), {2, 4, 1.0}, options);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value()[0], C({0, 1}, 0, 9));
}

TEST(K2HopTest, ResultsAreIdenticalForEveryThreadCount) {
  // The sharded driver must be exactly result-equivalent: shard outputs
  // are gathered by index and stitched at the seams, per-convoy work is
  // folded through the batch maximality barriers, so every num_shards x
  // num_threads yields byte-identical convoy lists. Dense random walks are
  // the adversarial input (chance convoys, splits, merges).
  for (uint64_t seed : {7u, 19u, 42u}) {
    RandomWalkSpec spec;
    spec.num_objects = 24;
    spec.num_ticks = 40;
    spec.area = 24.0;
    spec.step = 3.0;
    spec.seed = seed;
    auto store = MakeMemStore(GenerateRandomWalk(spec));
    const MiningParams params{3, 6, 7.0};

    K2HopOptions options;
    options.num_threads = 1;
    auto sequential = MineK2Hop(store.get(), params, options);
    ASSERT_TRUE(sequential.ok());
    ASSERT_FALSE(sequential.value().empty()) << "weak test input, seed=" << seed;

    for (int shards : {0, 1, 3}) {
      for (int threads : {1, 2, 8}) {
        options.num_shards = shards;
        options.num_threads = threads;
        auto mined = MineK2Hop(store.get(), params, options);
        ASSERT_TRUE(mined.ok());
        EXPECT_EQ(mined.value(), sequential.value())
            << "seed=" << seed << " shards=" << shards
            << " threads=" << threads;
      }
    }
  }
}

void ExpectSameIo(const IoStats& a, const IoStats& b) {
  EXPECT_EQ(a.snapshot_scans, b.snapshot_scans);
  EXPECT_EQ(a.scanned_points, b.scanned_points);
  EXPECT_EQ(a.point_queries, b.point_queries);
  EXPECT_EQ(a.point_hits, b.point_hits);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.seeks, b.seeks);
  EXPECT_EQ(a.pages_read, b.pages_read);
  EXPECT_EQ(a.pages_cached, b.pages_cached);
  EXPECT_EQ(a.bloom_negative, b.bloom_negative);
  EXPECT_EQ(a.sstables_touched, b.sstables_touched);
}

/// Algorithm 1 spelled out through the public phase functions, with one FC
/// ledger threaded through every phase as the driver does.
std::vector<Convoy> ComposePhases(Store* store, const MiningParams& params) {
  const TimeRange range = store->time_range();
  const std::vector<Timestamp> benchmarks = BenchmarkPoints(range, params.k);
  FcLedger ledger;
  std::vector<std::vector<ObjectSet>> spanning;
  K2_CHECK_OK(MineHopWindows(store, params, benchmarks, {}, &spanning,
                             /*stats=*/nullptr, &ledger));
  std::vector<Convoy> merged =
      MergeSpanningConvoys(spanning, benchmarks, params.m);
  auto right =
      ExtendRight(store, params, std::move(merged), range.end, &ledger);
  K2_CHECK_OK(right.status());
  auto left =
      ExtendLeft(store, params, right.MoveValue(), range.start, &ledger);
  K2_CHECK_OK(left.status());
  auto validated = ValidateFullyConnected(
      store, FilterMinLength(left.MoveValue(), params.k), params,
      /*recursive=*/true, /*stats=*/nullptr, &ledger);
  K2_CHECK_OK(validated.status());
  return validated.MoveValue();
}

TEST(K2HopTest, OneThreadIsTheSequentialPhaseComposition) {
  // num_threads = 1 makes no pool and no read snapshot: the driver reads
  // the caller's store exactly as the plain phase composition does, so
  // the convoys AND every IoStats field (LSM block-cache hits included)
  // match. Two identically loaded stores keep the caches comparable.
  RandomWalkSpec spec;
  spec.num_objects = 24;
  spec.num_ticks = 40;
  spec.area = 24.0;
  spec.step = 3.0;
  spec.seed = 19;
  const Dataset data = GenerateRandomWalk(spec);
  const MiningParams params{3, 6, 7.0};
  for (StoreKind kind : {StoreKind::kMemory, StoreKind::kLsm}) {
    SCOPED_TRACE(StoreKindName(kind));
    auto load = [&](const std::string& tag) {
      auto store = CreateStore(kind, ScratchDir(tag));
      K2_CHECK_OK(store.status());
      K2_CHECK_OK(store.value()->BulkLoad(data));
      return store.MoveValue();
    };
    std::unique_ptr<Store> composed_store = load("k2hop_composed");
    std::unique_ptr<Store> driver_store = load("k2hop_driver");

    const IoStats before = composed_store->io_stats();
    const std::vector<Convoy> composed =
        ComposePhases(composed_store.get(), params);
    const IoStats composed_io =
        IoStats::Delta(composed_store->io_stats(), before);
    ASSERT_FALSE(composed.empty()) << "weak test input";

    K2HopOptions options;
    options.num_threads = 1;
    K2HopStats stats;
    auto mined = MineK2Hop(driver_store.get(), params, options, &stats);
    ASSERT_TRUE(mined.ok());
    EXPECT_EQ(mined.value(), composed);
    ExpectSameIo(stats.io, composed_io);
    EXPECT_GT(composed_io.points_read(), 0u);
  }
}

RandomWalkSpec LedgerWalkSpec(uint64_t seed) {
  RandomWalkSpec spec;
  spec.num_objects = 24;
  spec.num_ticks = 40;
  spec.area = 24.0;
  spec.step = 3.0;
  spec.seed = seed;
  return spec;
}

TEST(K2HopTest, LedgerValidationMatchesLedgerFreeValidation) {
  // The driver's validation reads the run's FC ledger; validating the same
  // pre-validation convoys without one must give the same convoys with
  // exactly `proven_ticks` more reclusterings: the ledger answers probes,
  // it never adds or removes one.
  for (uint64_t seed : {7u, 19u, 42u}) {
    SCOPED_TRACE(seed);
    auto store = MakeMemStore(GenerateRandomWalk(LedgerWalkSpec(seed)));
    const MiningParams params{3, 6, 7.0};
    K2HopOptions options;
    options.num_threads = 1;
    K2HopStats stats;
    auto mined = MineK2Hop(store.get(), params, options, &stats);
    ASSERT_TRUE(mined.ok());
    ASSERT_FALSE(mined.value().empty()) << "weak test input";

    options.validate = false;
    auto candidates = MineK2Hop(store.get(), params, options);
    ASSERT_TRUE(candidates.ok());
    ValidationStats free_stats;
    auto ledger_free = ValidateFullyConnected(
        store.get(), candidates.MoveValue(), params, true, &free_stats);
    ASSERT_TRUE(ledger_free.ok());
    EXPECT_EQ(mined.value(), ledger_free.value());
    EXPECT_GT(stats.validation.proven_ticks, 0u);
    EXPECT_LT(stats.validation.reclusterings, free_stats.reclusterings);
    EXPECT_EQ(free_stats.proven_ticks, 0u);
    EXPECT_EQ(stats.validation.reclusterings + stats.validation.proven_ticks,
              free_stats.reclusterings);
  }
}

TEST(K2HopTest, ValidationCountersDoNotDependOnThreadCount) {
  // Validation reads only the sealed ledger, whose facts are the same set
  // whatever slot wrote them, so its counters repeat at every pool size.
  auto store = MakeMemStore(GenerateRandomWalk(LedgerWalkSpec(19)));
  const MiningParams params{3, 6, 7.0};
  std::vector<ValidationStats> runs;
  for (int threads : {2, 4, 8}) {
    K2HopOptions options;
    options.num_threads = threads;
    K2HopStats stats;
    ASSERT_TRUE(MineK2Hop(store.get(), params, options, &stats).ok());
    runs.push_back(stats.validation);
  }
  EXPECT_GT(runs[0].proven_ticks, 0u);
  for (const ValidationStats& vs : runs) {
    EXPECT_EQ(vs.reclusterings, runs[0].reclusterings);
    EXPECT_EQ(vs.proven_ticks, runs[0].proven_ticks);
    EXPECT_EQ(vs.split_rounds, runs[0].split_rounds);
  }
}

}  // namespace
}  // namespace k2
