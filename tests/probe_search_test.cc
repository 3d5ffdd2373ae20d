// Property tests of the dense-tick probe on every point-read path: for any
// layout of (tick, oid) rows, ProbedLowerBound and the searches built on it
// (SSTable::MultiGet, lsm::Memtable::MultiGet, GatherPoints, Dataset::Find)
// answer exactly what a std::lower_bound over the same rows answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

#include "common/probe_search.h"
#include "model/dataset.h"
#include "storage/key.h"
#include "storage/lsm/memtable.h"
#include "storage/lsm/sstable.h"
#include "storage/store.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::ScratchDir;
using lsm::LsmValue;

constexpr Timestamp kMinTick = std::numeric_limits<Timestamp>::min();
constexpr Timestamp kMaxTick = std::numeric_limits<Timestamp>::max();
constexpr ObjectId kMaxOid = std::numeric_limits<ObjectId>::max();

// ---------------------------------------------------------------------------
// ProbedLowerBound itself
// ---------------------------------------------------------------------------

// Every guess, good, bad or absurd, gives std::lower_bound's answer, and no
// guess makes the search load a key outside [lo, hi).
TEST(ProbedLowerBoundTest, EqualsLowerBoundForEveryGuess) {
  std::mt19937_64 rng(20261022);
  for (int round = 0; round < 200; ++round) {
    std::vector<uint64_t> keys;
    const size_t n = rng() % 40;
    uint64_t key = rng() % 4 == 0 ? std::numeric_limits<uint64_t>::max() - 200
                                  : rng() % 1000;
    for (size_t i = 0; i < n; ++i) {
      keys.push_back(key);
      key += 1 + (rng() % 3 == 0 ? rng() % 4 : 0);  // dense runs with holes
    }
    for (size_t lo = 0; lo <= n; ++lo) {
      const size_t hi = lo + rng() % (n - lo + 1);
      std::vector<uint64_t> targets{0, std::numeric_limits<uint64_t>::max()};
      for (uint64_t k : keys) {
        targets.insert(targets.end(), {k - 1, k, k + 1});
      }
      for (uint64_t target : targets) {
        const size_t want = static_cast<size_t>(
            std::lower_bound(keys.begin() + lo, keys.begin() + hi, target) -
            keys.begin());
        const uint64_t anchor = keys.empty() ? 0 : keys.front();
        const uint64_t guesses[] = {
            DenseSlot(0, anchor, target), 0, lo, lo - 1, hi, hi - 1,
            lo + (hi - lo) / 2, std::numeric_limits<uint64_t>::max(), rng()};
        for (uint64_t guess : guesses) {
          bool out_of_range = false;
          const size_t got =
              ProbedLowerBound(lo, hi, guess, target, [&](size_t i) {
                if (i < lo || i >= hi) out_of_range = true;
                return keys[i];
              });
          ASSERT_EQ(got, want) << "lo " << lo << " hi " << hi << " target "
                               << target << " guess " << guess;
          ASSERT_FALSE(out_of_range) << "guess " << guess;
        }
      }
    }
  }
}

// Keys that are not sorted (a damaged SSTable block) still yield an index
// in [lo, hi], reached without a load outside the range.
TEST(ProbedLowerBoundTest, UnsortedKeysStayInRange) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 500; ++round) {
    std::vector<uint64_t> keys(1 + rng() % 30);
    for (uint64_t& k : keys) k = rng() % 64;
    const size_t lo = rng() % keys.size();
    const size_t hi = lo + rng() % (keys.size() - lo + 1);
    const uint64_t target = rng() % 64;
    bool out_of_range = false;
    const size_t got = ProbedLowerBound(lo, hi, rng() % 40, target,
                                        [&](size_t i) {
                                          if (i < lo || i >= hi) {
                                            out_of_range = true;
                                          }
                                          return keys.at(i);
                                        });
    EXPECT_GE(got, lo);
    EXPECT_LE(got, hi);
    EXPECT_FALSE(out_of_range);
  }
}

TEST(ProbedLowerBoundTest, DenseSlotCountsFromEitherEnd) {
  EXPECT_EQ(DenseSlot(0, 100, 107), 7u);
  EXPECT_EQ(DenseSlot(9, 200, 195), 4u);  // back from the last key
  // Below a front anchor the slot wraps past any run.
  EXPECT_EQ(DenseSlot(0, 100, 99), std::numeric_limits<uint64_t>::max());
  // Keys of a run: the first key's tick counts from the front, any other
  // tick back from the last key.
  const uint64_t first = MakeKey(5, 30);
  const uint64_t last = MakeKey(6, 12);
  EXPECT_EQ(DenseKeySlot(first, last, 20, MakeKey(5, 33)), 3u);
  EXPECT_EQ(DenseKeySlot(first, last, 20, MakeKey(6, 10)), 17u);
  EXPECT_GE(DenseKeySlot(first, last, 20, MakeKey(7, 0)), 20u);
  EXPECT_GE(DenseKeySlot(first, last, 20, MakeKey(4, 0)), 20u);
}

// ---------------------------------------------------------------------------
// The point-read paths over layouts of (tick, oid) rows
// ---------------------------------------------------------------------------

struct Layout {
  std::string name;
  Dataset data;
};

LsmValue ValueOf(Timestamp t, ObjectId oid) {
  return {double(t) * 0.5, double(oid) + 0.25};
}

Dataset Build(const std::vector<std::pair<Timestamp, ObjectId>>& keys) {
  DatasetBuilder builder;
  for (const auto& [t, oid] : keys) {
    const LsmValue v = ValueOf(t, oid);
    builder.Add(t, oid, v.x, v.y);
  }
  return builder.Build();
}

// Every layout the probe must get right. Block size is 170 rows, so tick
// sizes that are not multiples of it make blocks straddle tick boundaries.
std::vector<Layout> Layouts(std::mt19937_64& rng) {
  std::vector<Layout> layouts;
  auto dense = [](std::initializer_list<Timestamp> ticks, ObjectId first,
                  ObjectId n) {
    std::vector<std::pair<Timestamp, ObjectId>> keys;
    for (Timestamp t : ticks) {
      for (ObjectId i = 0; i < n; ++i) keys.emplace_back(t, first + i);
    }
    return keys;
  };
  layouts.push_back({"dense", Build(dense({-3, 0, 1, 2, 9}, 0, 250))});
  layouts.push_back({"dense_offset", Build(dense({4, 5, 6}, 1000, 420))});
  layouts.push_back({"dense_small_ticks", Build(dense({0, 1, 2, 3, 4, 5}, 3,
                                                      40))});
  layouts.push_back(
      {"int32_edges", Build(dense({kMinTick, kMinTick + 1, -1, 0,
                                   kMaxTick - 1, kMaxTick},
                                  0, 200))});
  {
    std::vector<std::pair<Timestamp, ObjectId>> holes;
    for (const auto& key : dense({0, 1, 2, 3}, 0, 500)) {
      if (rng() % 6 != 0) holes.push_back(key);
    }
    layouts.push_back({"holes", Build(holes)});
  }
  {
    std::vector<std::pair<Timestamp, ObjectId>> sparse;
    for (Timestamp t : {-7, 0, 11}) {
      for (int i = 0; i < 300; ++i) {
        sparse.emplace_back(t, static_cast<ObjectId>(rng()));
      }
    }
    layouts.push_back({"sparse_oids", Build(sparse)});
  }
  {
    // oid 0 and UINT32_MAX, in dense runs at both ends of the oid space.
    std::vector<std::pair<Timestamp, ObjectId>> edges;
    for (Timestamp t : {kMinTick, 0, kMaxTick}) {
      for (ObjectId i = 0; i < 120; ++i) {
        edges.emplace_back(t, i);
        edges.emplace_back(t, kMaxOid - i);
      }
    }
    layouts.push_back({"oid_edges", Build(edges)});
  }
  layouts.push_back({"one_row", Build({{42, 7}})});
  // 171 rows: the last block holds one row.
  layouts.push_back({"one_row_block", Build(dense({3}, 5, 171))});
  return layouts;
}

// Ascending oid sets to look up at tick `t`: all present oids, their
// neighbours, oids below and above the tick, 0 and UINT32_MAX, and random
// subsets of those, among them 7-object sets (the HWMT shape).
std::vector<std::vector<ObjectId>> OidQueries(std::span<const PointRecord> rows,
                                              std::mt19937_64& rng) {
  std::vector<ObjectId> pool{0, 1, kMaxOid - 1, kMaxOid};
  for (const PointRecord& r : rows) {
    pool.push_back(r.oid);
    if (r.oid > 0) pool.push_back(r.oid - 1);
    if (r.oid < kMaxOid) pool.push_back(r.oid + 1);
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  std::vector<std::vector<ObjectId>> queries{{}, pool};
  for (int q = 0; q < 12; ++q) {
    std::vector<ObjectId> subset;
    const size_t want = q % 2 == 0 ? 7 : pool.size() / 5;
    std::sample(pool.begin(), pool.end(), std::back_inserter(subset), want,
                rng);
    queries.push_back(std::move(subset));
  }
  return queries;
}

// Ticks to query: every tick of the layout plus absent ticks beside them.
std::vector<Timestamp> QueryTicks(const Dataset& data) {
  std::vector<Timestamp> ticks{kMinTick, 0, kMaxTick};
  for (Timestamp t : data.timestamps()) {
    ticks.push_back(t);
    if (t > kMinTick) ticks.push_back(t - 1);
    if (t < kMaxTick) ticks.push_back(t + 1);
  }
  std::sort(ticks.begin(), ticks.end());
  ticks.erase(std::unique(ticks.begin(), ticks.end()), ticks.end());
  return ticks;
}

// The oracle: the row of (t, oid) found by std::lower_bound over all rows.
const PointRecord* OracleFind(const Dataset& data, Timestamp t,
                              ObjectId oid) {
  const auto& rows = data.records();
  auto it = std::lower_bound(rows.begin(), rows.end(), PointRecord{t, oid},
                             RecordKeyLess);
  if (it == rows.end() || it->t != t || it->oid != oid) return nullptr;
  return &*it;
}

// Checks one MultiGet answer for `keys` against the oracle.
void ExpectMultiGetMatches(const Dataset& data,
                           const std::vector<uint64_t>& keys,
                           const std::vector<LsmValue>& values,
                           const std::vector<uint8_t>& found) {
  for (size_t i = 0; i < keys.size(); ++i) {
    const PointRecord* want =
        OracleFind(data, KeyTime(keys[i]), KeyOid(keys[i]));
    ASSERT_EQ(found[i] != 0, want != nullptr)
        << "tick " << KeyTime(keys[i]) << " oid " << KeyOid(keys[i]);
    if (want == nullptr) continue;
    EXPECT_EQ(values[i].x, want->x);
    EXPECT_EQ(values[i].y, want->y);
  }
}

TEST(ProbedPointReadTest, EveryPathMatchesLowerBoundOracle) {
  std::mt19937_64 rng(20261022);
  const std::string dir = ScratchDir("probe_search");
  for (const Layout& layout : Layouts(rng)) {
    SCOPED_TRACE(layout.name);
    const Dataset& data = layout.data;
    lsm::SSTableBuilder builder(dir + "/" + layout.name + ".sst");
    lsm::Memtable memtable;
    for (const PointRecord& r : data.records()) {
      const uint64_t key = MakeKey(r.t, r.oid);
      ASSERT_TRUE(builder.Add(key, {r.x, r.y}).ok());
      ASSERT_TRUE(memtable.Append(key, {r.x, r.y}));
    }
    ASSERT_TRUE(builder.Finish().ok());
    auto table = lsm::SSTable::Open(dir + "/" + layout.name + ".sst", 1);
    ASSERT_TRUE(table.ok()) << table.status().ToString();

    std::vector<uint64_t> all_keys;  // one walk across every tick
    for (Timestamp t : QueryTicks(data)) {
      SCOPED_TRACE("tick " + std::to_string(t));
      const auto rows = data.Snapshot(t);
      for (const std::vector<ObjectId>& oids : OidQueries(rows, rng)) {
        // GatherPoints over the tick's rows.
        std::vector<SnapshotPoint> gathered;
        const size_t hits =
            GatherPoints(rows, ObjectSet::FromSorted(oids), &gathered);
        std::vector<SnapshotPoint> want;
        for (ObjectId oid : oids) {
          if (const PointRecord* r = OracleFind(data, t, oid)) {
            want.push_back(SnapshotPoint{oid, r->x, r->y});
          }
          // Dataset::Find answers the same single lookups.
          const PointRecord* found = data.Find(t, oid);
          ASSERT_EQ(found, OracleFind(data, t, oid)) << "oid " << oid;
        }
        EXPECT_EQ(hits, want.size());
        ASSERT_EQ(gathered.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(gathered[i].oid, want[i].oid);
          EXPECT_EQ(gathered[i].x, want[i].x);
          EXPECT_EQ(gathered[i].y, want[i].y);
        }

        // SSTable and memtable MultiGet over the packed keys.
        std::vector<uint64_t> keys;
        for (ObjectId oid : oids) keys.push_back(MakeKey(t, oid));
        if (oids.size() == 7) all_keys.insert(all_keys.end(), keys.begin(),
                                              keys.end());
        std::vector<LsmValue> values(keys.size());
        std::vector<uint8_t> found(keys.size(), 0);
        IoStats io;
        const size_t table_hits = table.value()->MultiGet(
            keys, values.data(), found.data(), &io);
        EXPECT_EQ(table_hits, want.size());
        EXPECT_EQ(io.bytes_read, want.size() * lsm::kEntrySize);
        ExpectMultiGetMatches(data, keys, values, found);

        values.assign(keys.size(), LsmValue{});
        found.assign(keys.size(), 0);
        memtable.MultiGet(keys, values.data(), found.data());
        ExpectMultiGetMatches(data, keys, values, found);
      }
    }
    // Keys of every tick in one call: the walks cross blocks and ticks.
    std::sort(all_keys.begin(), all_keys.end());
    all_keys.erase(std::unique(all_keys.begin(), all_keys.end()),
                   all_keys.end());
    std::vector<LsmValue> values(all_keys.size());
    std::vector<uint8_t> found(all_keys.size(), 0);
    IoStats io;
    table.value()->MultiGet(all_keys, values.data(), found.data(), &io);
    ExpectMultiGetMatches(data, all_keys, values, found);
    values.assign(all_keys.size(), LsmValue{});
    found.assign(all_keys.size(), 0);
    memtable.MultiGet(all_keys, values.data(), found.data());
    ExpectMultiGetMatches(data, all_keys, values, found);
  }
}

}  // namespace
}  // namespace k2
