// Validation (Algorithm 4 / HWMT*): binary subdivision order, FC acceptance,
// recursive splitting, and the one-pass DCVal bug the paper corrects.
#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "baselines/gold.h"
#include "baselines/validation.h"
#include "cluster/fc_ledger.h"
#include "cluster/store_clustering.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::C;
using ::k2::testing::MakeMemStore;
using ::k2::testing::MakeTracks;

// ---------------------------------------------------------------------------
// BinarySubdivisionOrder
// ---------------------------------------------------------------------------

TEST(BinarySubdivisionOrderTest, CoversEveryTickExactlyOnce) {
  for (Timestamp len : {1, 2, 3, 4, 5, 8, 13, 16, 31}) {
    const TimeRange range{10, 10 + len - 1};
    std::vector<Timestamp> order = BinarySubdivisionOrder(range);
    ASSERT_EQ(order.size(), static_cast<size_t>(len)) << "len=" << len;
    std::vector<Timestamp> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (Timestamp i = 0; i < len; ++i) ASSERT_EQ(sorted[i], 10 + i);
  }
}

TEST(BinarySubdivisionOrderTest, EndpointsComeFirstThenMidpoint) {
  const std::vector<Timestamp> order = BinarySubdivisionOrder({0, 8});
  ASSERT_GE(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 8);
  EXPECT_EQ(order[2], 4);  // root of the mining tree = the middle
}

TEST(BinarySubdivisionOrderTest, EmptyAndSingle) {
  EXPECT_TRUE(BinarySubdivisionOrder({1, 0}).empty());
  EXPECT_EQ(BinarySubdivisionOrder({5, 5}), (std::vector<Timestamp>{5}));
}

TEST(BinarySubdivisionOrderTest, MatchesPaperFigure4LevelOrder) {
  // Window [0,8] (Table 2): probe order of interior ticks is 4, then 2, 6,
  // then 1, 3, 5, 7 — level by level.
  const std::vector<Timestamp> order = BinarySubdivisionOrder({0, 8});
  const std::vector<Timestamp> expected{0, 8, 4, 2, 6, 1, 3, 5, 7};
  EXPECT_EQ(order, expected);
}

// ---------------------------------------------------------------------------
// ValidateFullyConnected
// ---------------------------------------------------------------------------

TEST(ValidationTest, AcceptsFullyConnectedCandidate) {
  auto store = MakeMemStore(MakeTracks({{0, 0, 0, 0}, {0.5, 0.5, 0.5, 0.5}}));
  ValidationStats stats;
  auto out = ValidateFullyConnected(store.get(), {C({0, 1}, 0, 3)},
                                    {2, 2, 1.0}, true, &stats);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value()[0], C({0, 1}, 0, 3));
  EXPECT_EQ(stats.fc_accepted, 1u);
  EXPECT_EQ(stats.split_rounds, 0u);
}

TEST(ValidationTest, DropsTooSmallOrTooShortCandidates) {
  auto store = MakeMemStore(MakeTracks({{0, 0}, {0.5, 0.5}}));
  auto out = ValidateFullyConnected(store.get(), {C({0}, 0, 1), C({0, 1}, 0, 0)},
                                    {2, 2, 1.0}, true);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().empty());
}

// The paper's Sec. 4.6 scenario: candidate (abcd,[0,5]) where object d is
// connected to abc only through object e at tick 2; e is not part of the
// candidate, so the true FC convoy is (abc,[0,5]).
class BridgeScenario : public ::testing::Test {
 protected:
  std::unique_ptr<MemoryStore> MakeStore() {
    // Objects: a=0,b=1,c=2 chained at x=0,0.9,1.8 all ticks.
    // d=3 at x=3.6 (within eps of nothing but e at tick 2; at other ticks
    // x=2.7 -> chained to c directly).
    // e=4 sits at x=2.7 at tick 2 bridging c(1.8) and d(3.6); far otherwise.
    std::vector<std::vector<double>> tracks = {
        {0, 0, 0, 0, 0, 0},
        {0.9, 0.9, 0.9, 0.9, 0.9, 0.9},
        {1.8, 1.8, 1.8, 1.8, 1.8, 1.8},
        {2.7, 2.7, 3.6, 2.7, 2.7, 2.7},   // d drifts out at tick 2
        {50, 50, 2.7, 50, 50, 50},        // e bridges at tick 2 only
    };
    return MakeMemStore(MakeTracks(tracks));
  }
  const MiningParams params_{2, 4, 1.0};
};

TEST_F(BridgeScenario, RecursiveValidationSplitsToTrueFcConvoys) {
  auto store = MakeStore();
  ValidationStats stats;
  auto out = ValidateFullyConnected(store.get(), {C({0, 1, 2, 3}, 0, 5)},
                                    params_, true, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(stats.split_rounds, 0u);
  // The restriction to {a,b,c,d} is NOT a convoy over [0,5] (at tick 2, d is
  // 1.8 from c with no bridge inside the candidate set). Recursive
  // validation finds the pieces; gold confirms them.
  const auto gold = GoldFullyConnectedConvoys(store->dataset(), params_);
  EXPECT_SAME_CONVOYS(out.value(), gold);
  // And the headline piece is (abc + d rejoining): ({0,1,2,3},[3,5]) is too
  // short (k=4), so ({0,1,2},[0,5]) must be in the output.
  bool found_abc = false;
  for (const Convoy& v : out.value()) {
    if (v == C({0, 1, 2}, 0, 5)) found_abc = true;
  }
  EXPECT_TRUE(found_abc);
}

/// Records every tick of `v`'s lifespan at which its objects re-cluster to
/// exactly themselves: an honest ledger writer.
void RecordTrueFacts(Store* store, const Convoy& v, const MiningParams& params,
                     FcLedger* ledger) {
  SnapshotScratch scratch;
  for (Timestamp t = v.start; t <= v.end; ++t) {
    auto clusters = ReCluster(store, t, v.objects, params, &scratch);
    K2_CHECK_OK(clusters.status());
    if (clusters.value() == std::vector<ObjectSet>{v.objects}) {
      ledger->Record(v.objects, t);
    }
  }
}

TEST_F(BridgeScenario, LedgerKeepsTheSplitPathExact) {
  // The candidate is FC at every tick but 2, so the ledger proves five of
  // its six probes; the sweep then reuses those answers and the pieces'
  // own probes run as before. Output and total probe count are unchanged.
  auto store = MakeStore();
  const Convoy candidate = C({0, 1, 2, 3}, 0, 5);
  FcLedger ledger;
  RecordTrueFacts(store.get(), candidate, params_, &ledger);
  EXPECT_EQ(ledger.num_facts(), 5u);

  ValidationStats free_stats, ledger_stats;
  auto free_out = ValidateFullyConnected(store.get(), {candidate}, params_,
                                         true, &free_stats);
  auto ledger_out = ValidateFullyConnected(store.get(), {candidate}, params_,
                                           true, &ledger_stats, &ledger);
  ASSERT_TRUE(free_out.ok() && ledger_out.ok());
  EXPECT_EQ(ledger_out.value(), free_out.value());
  EXPECT_GT(ledger_stats.split_rounds, 0u);
  EXPECT_EQ(ledger_stats.split_rounds, free_stats.split_rounds);
  EXPECT_EQ(ledger_stats.proven_ticks, 5u);
  EXPECT_EQ(ledger_stats.reclusterings + ledger_stats.proven_ticks,
            free_stats.reclusterings);
}

TEST_F(BridgeScenario, OnePassDcvalEmitsUnvalidatedSplits) {
  // One-pass DCVal (VCoDA) emits split pieces without re-validating them.
  // Construction: a and c are never within eps of each other, but are
  // bridged by b during ticks 0-1 and by d during ticks 2-5. The restricted
  // sweep of candidate {a,b,c,d} therefore emits the piece ({a,c},[0,5]) —
  // which is NOT fully connected. Recursive validation re-validates and
  // drops it; one-pass DCVal leaks it.
  std::vector<std::vector<double>> tracks = {
      {0, 0, 0, 0, 0, 0},                  // a
      {0.9, 0.9, 52, 53, 54, 55},          // b: bridge at ticks 0-1 only
      {1.8, 1.8, 1.8, 1.8, 1.8, 1.8},      // c
      {70, 71, 0.9, 0.9, 0.9, 0.9},        // d: bridge at ticks 2-5 only
  };
  auto store = MakeMemStore(MakeTracks(tracks));
  const MiningParams params{2, 3, 1.0};
  const Convoy candidate = C({0, 1, 2, 3}, 0, 5);

  auto recursive =
      ValidateFullyConnected(store.get(), {candidate}, params, true);
  auto one_pass =
      ValidateFullyConnected(store.get(), {candidate}, params, false);
  ASSERT_TRUE(recursive.ok() && one_pass.ok());
  const auto gold = GoldFullyConnectedConvoys(store->dataset(), params);
  // Gold restricted to sub-convoys of the candidate:
  std::vector<Convoy> gold_in_candidate;
  for (const Convoy& v : gold) {
    if (v.IsSubConvoyOf(candidate)) gold_in_candidate.push_back(v);
  }
  EXPECT_SAME_CONVOYS(recursive.value(), gold_in_candidate);

  // The one-pass result must contain at least one convoy that is NOT fully
  // connected (the documented bug).
  bool emitted_non_fc = false;
  for (const Convoy& v : one_pass.value()) {
    bool in_gold = false;
    for (const Convoy& g : gold) {
      if (v == g) in_gold = true;
    }
    if (!in_gold) emitted_non_fc = true;
  }
  EXPECT_TRUE(emitted_non_fc);
}

TEST(ValidationTest, LedgerGivesTheSameOutputOnSeededCandidates) {
  // Candidates are real clusters of a random tick given random lifespans,
  // so some are FC, some split and some die; the ledger holds true facts
  // for a random half of them, plus facts about their supersets.
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    RandomWalkSpec spec;
    spec.num_objects = 20;
    spec.num_ticks = 30;
    spec.area = 20.0;
    spec.step = 2.0;
    spec.seed = seed;
    auto store = MakeMemStore(GenerateRandomWalk(spec));
    const MiningParams params{2, 3, 4.0};
    Rng rng(seed);
    std::vector<Convoy> candidates;
    FcLedger ledger;
    SnapshotScratch scratch;
    for (int i = 0; i < 12; ++i) {
      const auto t = static_cast<Timestamp>(rng.UniformInt(0, 29));
      auto clusters = ClusterSnapshot(store.get(), t, params, &scratch);
      ASSERT_TRUE(clusters.ok());
      for (const ObjectSet& cluster : clusters.value()) {
        const auto start = static_cast<Timestamp>(rng.UniformInt(0, t));
        const auto end = static_cast<Timestamp>(rng.UniformInt(t, 29));
        candidates.emplace_back(cluster, start, end);
        if (rng.NextInt(2) == 0) {
          RecordTrueFacts(store.get(), candidates.back(), params, &ledger);
        }
      }
    }
    ASSERT_FALSE(candidates.empty());

    ValidationStats free_stats, ledger_stats;
    auto free_out = ValidateFullyConnected(store.get(), candidates, params,
                                           true, &free_stats);
    auto ledger_out = ValidateFullyConnected(store.get(), candidates, params,
                                             true, &ledger_stats, &ledger);
    ASSERT_TRUE(free_out.ok() && ledger_out.ok());
    EXPECT_EQ(ledger_out.value(), free_out.value());
    EXPECT_GT(ledger_stats.proven_ticks, 0u);
    EXPECT_EQ(ledger_stats.reclusterings + ledger_stats.proven_ticks,
              free_stats.reclusterings);
    EXPECT_EQ(ledger_stats.fc_accepted, free_stats.fc_accepted);
  }
}

TEST(ValidationTest, LedgerIsReadOnlyAtTheExactSetAndTick) {
  // The ledger is trusted, so a forged fact shows exactly where it is
  // read: facts about a superset of O, a subset of O, or O at a tick
  // outside the lifespan are never consulted, while a (forged) fact about
  // exactly (O, t) is taken as proof and hides the split at t.
  auto store = MakeMemStore(MakeTracks({
      {0, 0, 0, 0, 0},
      {0.5, 0.5, 9.0, 0.5, 0.5},  // leaves the group at tick 2
      {1.0, 1.0, 1.0, 1.0, 1.0},
      {1.4, 1.4, 1.4, 1.4, 1.4},
  }));
  const MiningParams params{2, 5, 0.6};
  const Convoy candidate = C({0, 1, 2}, 0, 4);
  FcLedger ledger;
  for (Timestamp t = 0; t <= 4; ++t) {
    ledger.Record(ObjectSet::Of({0, 1, 2, 3}), t);
    ledger.Record(ObjectSet::Of({0, 2}), t);
  }
  ledger.Record(candidate.objects, -1);
  ledger.Record(candidate.objects, 5);

  ValidationStats stats;
  auto out = ValidateFullyConnected(store.get(), {candidate}, params, true,
                                    &stats, &ledger);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().empty());  // {0,1,2} splits at tick 2
  EXPECT_EQ(stats.proven_ticks, 0u);

  ledger.Record(candidate.objects, 2);
  stats = ValidationStats();
  out = ValidateFullyConnected(store.get(), {candidate}, params, true, &stats,
                               &ledger);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), std::vector<Convoy>{candidate});
  EXPECT_EQ(stats.proven_ticks, 1u);
}

TEST(FcLedgerTest, LogsReadTheirSealedParentAndAbsorbIntoIt) {
  constexpr Timestamp kLo = std::numeric_limits<Timestamp>::min();
  constexpr Timestamp kHi = std::numeric_limits<Timestamp>::max();
  const ObjectSet a = ObjectSet::Of({1, 2});
  const ObjectSet b = ObjectSet::Of({1, 2, 3});
  FcLedger sealed;
  sealed.Record(a, kLo);
  FcLedger log(&sealed);
  log.Record(b, kHi);
  log.Record(a, 0);
  EXPECT_TRUE(log.Proven(a, kLo));  // through the parent
  EXPECT_TRUE(log.Proven(b, kHi));
  EXPECT_FALSE(sealed.Proven(b, kHi));  // the parent is never written
  EXPECT_FALSE(log.Proven(a, kHi));
  EXPECT_FALSE(log.Proven(b, kLo));
  EXPECT_FALSE(log.Proven(a, -1));

  sealed.Absorb(&log);
  EXPECT_EQ(log.num_facts(), 0u);
  EXPECT_EQ(sealed.num_facts(), 3u);
  EXPECT_TRUE(sealed.Proven(a, kLo));
  EXPECT_TRUE(sealed.Proven(a, 0));
  EXPECT_TRUE(sealed.Proven(b, kHi));
  EXPECT_FALSE(sealed.Proven(b, kHi - 1));
  EXPECT_TRUE(log.Proven(b, kHi));  // the emptied log still reads the parent
}

TEST(ValidationTest, DuplicateCandidatesProcessedOnce) {
  auto store = MakeMemStore(MakeTracks({{0, 0, 0}, {0.5, 0.5, 0.5}}));
  ValidationStats stats;
  auto out = ValidateFullyConnected(
      store.get(), {C({0, 1}, 0, 2), C({0, 1}, 0, 2)}, {2, 2, 1.0}, true,
      &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 1u);
  EXPECT_EQ(stats.fc_accepted, 1u);
}

}  // namespace
}  // namespace k2
