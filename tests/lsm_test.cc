// White-box tests for the LSM engine: skip list, SSTable format,
// flush/compaction lifecycle, newest-wins versioning.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <cstring>
#include <map>
#include <random>
#include <thread>

#include "gen/synthetic.h"
#include "storage/key.h"
#include "storage/lsm/skiplist.h"
#include "storage/lsm/sstable.h"
#include "storage/lsm_store.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::ScratchDir;
using ::k2::testing::WriteFile;
using lsm::LsmValue;
using lsm::SkipList;
using lsm::SSTable;
using lsm::SSTableBuilder;

// ---------------------------------------------------------------------------
// SkipList
// ---------------------------------------------------------------------------

TEST(SkipListTest, PutGet) {
  SkipList list;
  list.Put(5, {1.0, 2.0});
  list.Put(1, {3.0, 4.0});
  LsmValue v;
  EXPECT_TRUE(list.Get(5, &v));
  EXPECT_DOUBLE_EQ(v.x, 1.0);
  EXPECT_TRUE(list.Get(1, &v));
  EXPECT_DOUBLE_EQ(v.y, 4.0);
  EXPECT_FALSE(list.Get(3, &v));
  EXPECT_EQ(list.size(), 2u);
}

TEST(SkipListTest, OverwriteKeepsSize) {
  SkipList list;
  list.Put(7, {1, 1});
  list.Put(7, {2, 2});
  EXPECT_EQ(list.size(), 1u);
  LsmValue v;
  ASSERT_TRUE(list.Get(7, &v));
  EXPECT_DOUBLE_EQ(v.x, 2.0);
}

TEST(SkipListTest, OrderedScan) {
  SkipList list;
  for (uint64_t k : {50, 10, 30, 20, 40}) list.Put(k, {double(k), 0});
  std::vector<uint64_t> keys;
  list.Scan(15, 45, [&](uint64_t k, const LsmValue&) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<uint64_t>{20, 30, 40}));
}

TEST(SkipListTest, ManyKeysStaySorted) {
  SkipList list;
  for (uint64_t i = 0; i < 5000; ++i) list.Put((i * 2654435761u) % 100000, {0, 0});
  uint64_t prev = 0;
  bool first = true;
  list.ForEach([&](uint64_t k, const LsmValue&) {
    if (!first) {
      EXPECT_GT(k, prev);
    }
    prev = k;
    first = false;
  });
}

TEST(SkipListTest, ClearEmptiesList) {
  SkipList list;
  list.Put(1, {0, 0});
  list.Clear();
  EXPECT_TRUE(list.empty());
  LsmValue v;
  EXPECT_FALSE(list.Get(1, &v));
}

// ---------------------------------------------------------------------------
// SSTable
// ---------------------------------------------------------------------------

TEST(SSTableTest, BuildOpenGetScan) {
  const std::string dir = ScratchDir("sstable");
  const std::string path = dir + "/t1.sst";
  SSTableBuilder builder(path);
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(builder.Add(k * 3, {double(k), double(-k)}).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());

  auto open = SSTable::Open(path, 1);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  std::shared_ptr<const SSTable> table = open.MoveValue();
  EXPECT_EQ(table->num_entries(), 1000u);
  EXPECT_EQ(table->min_key(), 0u);
  EXPECT_EQ(table->max_key(), 2997u);

  IoStats stats;
  const std::vector<uint64_t> keys{300, 301};
  LsmValue values[2];
  uint8_t found[2] = {0, 0};
  EXPECT_EQ(table->MultiGet(keys, values, found, &stats), 1u);
  EXPECT_EQ(found[0], 1);
  EXPECT_DOUBLE_EQ(values[0].x, 100.0);
  EXPECT_EQ(found[1], 0);

  std::vector<uint64_t> scanned;
  table->Scan(
      100, 200, [&](uint64_t k, const LsmValue&) { scanned.push_back(k); },
      &stats);
  ASSERT_FALSE(scanned.empty());
  EXPECT_EQ(scanned.front(), 102u);
  EXPECT_EQ(scanned.back(), 198u);
}

TEST(SSTableTest, RejectsOutOfOrderKeys) {
  const std::string path = ScratchDir("sstable_order") + "/t.sst";
  SSTableBuilder builder(path);
  ASSERT_TRUE(builder.Add(10, {0, 0}).ok());
  EXPECT_FALSE(builder.Add(10, {0, 0}).ok());
  EXPECT_FALSE(builder.Add(5, {0, 0}).ok());
}

/// Builds a table holding `rows` at `path` and opens it.
std::shared_ptr<const SSTable> BuildTable(
    const std::string& path, const std::map<uint64_t, LsmValue>& rows,
    uint64_t seq = 1) {
  SSTableBuilder builder(path);
  for (const auto& [key, value] : rows) K2_CHECK(builder.Add(key, value).ok());
  K2_CHECK(builder.Finish().ok());
  auto table = SSTable::Open(path, seq);
  K2_CHECK(table.ok());
  return table.MoveValue();
}

// Reads are served only from the mapping, so a file that opens but cannot
// be mapped (a directory here) is a named IOError, not a silent fallback.
TEST(SSTableTest, OpenReportsMmapFailureAsIOError) {
  const std::string dir = ScratchDir("sstable_mmap") + "/table.sst";
  ASSERT_EQ(mkdir(dir.c_str(), 0755), 0);
  // Give the directory a size past the footer on every file system.
  for (int i = 0; i < 8; ++i) {
    WriteFile(dir + "/entry_with_a_deliberately_long_name_" +
                  std::to_string(i),
              "x");
  }
  struct stat st;
  ASSERT_EQ(stat(dir.c_str(), &st), 0);
  ASSERT_GE(st.st_size, 40);
  auto r = SSTable::Open(dir, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().message().find("cannot mmap"), std::string::npos)
      << r.status().ToString();
}

// The documented IoStats model of one table walk and one scan, exactly.
TEST(SSTableTest, IoStatsModelIsExact) {
  std::map<uint64_t, LsmValue> rows;
  // Even keys 0..1998; block b (170 entries) holds keys [340b, 340b + 338].
  for (uint64_t k = 0; k < 1000; ++k) rows[k * 2] = {double(k), -double(k)};
  auto table = BuildTable(ScratchDir("sstable_io_model") + "/t.sst", rows);

  // Blocks 0 (2, 3, 4), 1 (341, absent) and 4 (1500; 1501 absent); 5000
  // lies past the table.
  const std::vector<uint64_t> keys{2, 3, 4, 341, 1500, 1501, 5000};
  std::vector<LsmValue> values(keys.size());
  std::vector<uint8_t> found(keys.size(), 0);
  IoStats io;
  EXPECT_EQ(table->MultiGet(keys, values.data(), found.data(), &io), 3u);
  EXPECT_EQ(found, (std::vector<uint8_t>{1, 0, 1, 0, 1, 0, 0}));
  EXPECT_DOUBLE_EQ(values[4].x, 750.0);
  EXPECT_EQ(io.sstables_touched, 1u);
  EXPECT_EQ(io.pages_read, 3u);  // distinct blocks 0, 1, 4
  EXPECT_EQ(io.seeks, 2u);       // runs {0, 1} and {4}
  EXPECT_EQ(io.pages_cached, 0u);
  EXPECT_EQ(io.bytes_read, 3u * 24);
  EXPECT_EQ(io.bloom_negative, 0u);

  // Keys a newer source already found are skipped: only block 4 is read.
  found = {1, 1, 1, 1, 0, 1, 1};
  IoStats skip;
  EXPECT_EQ(table->MultiGet(keys, values.data(), found.data(), &skip), 1u);
  EXPECT_EQ(skip.pages_read, 1u);
  EXPECT_EQ(skip.seeks, 1u);
  EXPECT_EQ(skip.bytes_read, 24u);

  // Absent keys cost their blocks all the same: the odd keys fall inside
  // every block, so one walk reads all six blocks in one run.
  std::vector<uint64_t> absent;
  for (uint64_t k = 1; k < 1999; k += 2) absent.push_back(k);
  values.resize(absent.size());
  found.assign(absent.size(), 0);
  IoStats miss;
  EXPECT_EQ(table->MultiGet(absent, values.data(), found.data(), &miss), 0u);
  EXPECT_EQ(miss.pages_read, 6u);
  EXPECT_EQ(miss.seeks, 1u);
  EXPECT_EQ(miss.bytes_read, 0u);

  // A scan reads blocks 1..3 in one run and hands out 341 rows.
  IoStats scan;
  size_t n = 0;
  table->Scan(340, 1020, [&](uint64_t, const LsmValue&) { ++n; }, &scan);
  EXPECT_EQ(n, 341u);
  EXPECT_EQ(scan.sstables_touched, 1u);
  EXPECT_EQ(scan.pages_read, 3u);
  EXPECT_EQ(scan.seeks, 1u);
  EXPECT_EQ(scan.pages_cached, 0u);
  EXPECT_EQ(scan.bytes_read, 341u * 24);
}

// Seeded property test: a newest-first MultiGet walk over overlapping
// tables equals a std::map oracle where the newest table wins — for absent
// keys, keys on both sides of block boundaries, ticks at the ends of int32,
// empty key sets, whole-table and cross-tick key sets.
TEST(SSTableTest, MultiGetMatchesOracleOnOverlappingTables) {
  const std::string dir = ScratchDir("sstable_multiget_oracle");
  const Timestamp ticks[] = {std::numeric_limits<Timestamp>::min(), -1, 0, 7,
                             std::numeric_limits<Timestamp>::max()};
  std::mt19937_64 rng(20260417);
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // Three tables, newest first; each holds a random subset of (tick, oid)
    // with oids < 600, so every tick spans several blocks of every table.
    std::vector<std::shared_ptr<const SSTable>> tables;
    std::map<uint64_t, LsmValue> oracle;
    for (int j = 0; j < 3; ++j) {
      std::map<uint64_t, LsmValue> rows;
      const uint64_t density = 2 + rng() % 4;
      for (Timestamp t : ticks) {
        for (ObjectId oid = 0; oid < 600; ++oid) {
          if (rng() % density == 0) {
            rows[MakeKey(t, oid)] = {double(j), double(oid) + round};
          }
        }
      }
      // Tables are built newest first, so the oracle keeps first writes.
      for (const auto& [key, value] : rows) oracle.emplace(key, value);
      tables.push_back(BuildTable(dir + "/r" + std::to_string(round) + "_" +
                                      std::to_string(j) + ".sst",
                                  rows, 3 - j));
    }
    std::vector<std::vector<uint64_t>> queries;
    queries.emplace_back();  // empty key set
    std::vector<uint64_t> all;
    for (Timestamp t : ticks) {
      std::vector<uint64_t> dense, sparse;
      for (ObjectId oid = 0; oid < 700; ++oid) {  // >= 600 are all absent
        dense.push_back(MakeKey(t, oid));
        if (rng() % 7 == 0) sparse.push_back(MakeKey(t, oid));
      }
      all.insert(all.end(), sparse.begin(), sparse.end());
      queries.push_back(std::move(dense));
      queries.push_back(std::move(sparse));
    }
    queries.push_back(std::move(all));  // one walk across every tick
    for (const std::vector<uint64_t>& keys : queries) {
      std::vector<LsmValue> values(keys.size());
      std::vector<uint8_t> found(keys.size(), 0);
      IoStats io;
      size_t hits = 0;
      for (const auto& table : tables) {
        hits += table->MultiGet(keys, values.data(), found.data(), &io);
      }
      size_t want_hits = 0;
      for (size_t i = 0; i < keys.size(); ++i) {
        auto it = oracle.find(keys[i]);
        ASSERT_EQ(found[i] != 0, it != oracle.end()) << "key " << keys[i];
        if (it == oracle.end()) continue;
        ++want_hits;
        EXPECT_EQ(values[i].x, it->second.x) << "key " << keys[i];
        EXPECT_EQ(values[i].y, it->second.y) << "key " << keys[i];
      }
      EXPECT_EQ(hits, want_hits);
      EXPECT_EQ(io.bytes_read, want_hits * 24);
      EXPECT_EQ(io.pages_cached, 0u);
      EXPECT_EQ(io.bloom_negative, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// LsmStore
// ---------------------------------------------------------------------------

TEST(LsmStoreTest, FlushProducesSSTables) {
  LsmStore::Options options;
  options.memtable_limit = 100;
  LsmStore store(ScratchDir("lsm_flush"), options);
  for (Timestamp t = 0; t < 50; ++t) {
    for (ObjectId o = 0; o < 10; ++o) {
      ASSERT_TRUE(store.Put(t, o, t, o).ok());
    }
  }
  EXPECT_GT(store.num_sstables(), 0u);
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_EQ(store.memtable_entries(), 0u);
  EXPECT_EQ(store.num_points(), 500u);
}

TEST(LsmStoreTest, CompactionMergesTiers) {
  LsmStore::Options options;
  options.memtable_limit = 64;
  options.tier_fanout = 2;
  LsmStore store(ScratchDir("lsm_compact"), options);
  for (Timestamp t = 0; t < 100; ++t) {
    for (ObjectId o = 0; o < 8; ++o) ASSERT_TRUE(store.Put(t, o, t, o).ok());
  }
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_GT(store.compactions_run(), 0u);
  // All data still readable after compaction.
  std::vector<SnapshotPoint> out;
  for (Timestamp t = 0; t < 100; ++t) {
    ASSERT_TRUE(store.ScanTimestamp(t, &out).ok());
    ASSERT_EQ(out.size(), 8u) << "tick " << t;
  }
}

TEST(LsmStoreTest, TierFanoutBelowTwoIsRejectedAtOpen) {
  // With 1 every merged table refills its new tier and with 0 even empty
  // tiers merge, so neither cascade would end: both fail cleanly instead.
  for (size_t fanout : {size_t{0}, size_t{1}}) {
    LsmStore::Options options;
    options.tier_fanout = fanout;
    LsmStore store(ScratchDir("lsm_fanout_" + std::to_string(fanout)),
                   options);
    EXPECT_EQ(store.init_status().code(), StatusCode::kInvalid)
        << store.init_status().ToString();
    EXPECT_NE(store.init_status().ToString().find("tier_fanout"),
              std::string::npos);
    EXPECT_EQ(store.Put(0, 1, 0.0, 0.0).code(), StatusCode::kInvalid);
    EXPECT_EQ(store.BulkLoad(DatasetBuilder().Build()).code(),
              StatusCode::kInvalid);
    EXPECT_EQ(store.Flush().code(), StatusCode::kInvalid);
    std::vector<SnapshotPoint> out;
    EXPECT_EQ(store.ScanTimestamp(0, &out).code(), StatusCode::kInvalid);
  }
}

TEST(LsmStoreTest, TierFanoutTwoCompactsEveryPairOfTables) {
  LsmStore::Options options;
  options.memtable_limit = 16;
  options.tier_fanout = 2;
  options.background_compaction = false;
  LsmStore store(ScratchDir("lsm_fanout_2"), options);
  ASSERT_TRUE(store.init_status().ok());
  for (Timestamp t = 0; t < 64; ++t) {
    for (ObjectId o = 0; o < 4; ++o) ASSERT_TRUE(store.Put(t, o, t, o).ok());
  }
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_GT(store.compactions_run(), 0u);
  EXPECT_LE(store.num_sstables(), 8u);  // at most one table per tier
  std::vector<SnapshotPoint> out;
  for (Timestamp t = 0; t < 64; ++t) {
    ASSERT_TRUE(store.ScanTimestamp(t, &out).ok());
    ASSERT_EQ(out.size(), 4u) << "tick " << t;
  }
}

// Regression test for a guard-aliasing hazard the thread-safety annotation
// pass flushed out (runs under the sanitize-tsan CI job): the background
// worker once handed SSTable::Open a live pointer into the mu_-guarded
// io_stats_ while mu_ was dropped around flush/compaction IO, racing every
// foreground scan charging the same struct under mu_. Table handles now
// hold no IoStats at all — every read is charged to the IoStats its caller
// passes — and the merge charges a job-local IoStats. This test keeps the
// interleaving hot — a tiny memtable keeps the worker opening and merging
// tables while a dedicated reader charges io_stats() nonstop — so TSan
// fires if the unlocked window ever touches the shared counters again.
TEST(LsmStoreTest, BackgroundOpenDoesNotRaceForegroundIoAccounting) {
  LsmStore::Options options;
  options.memtable_limit = 16;  // rotate constantly: keep the worker opening
  options.tier_fanout = 2;
  ASSERT_TRUE(options.background_compaction);  // the racing thread
  LsmStore store(ScratchDir("lsm_io_race"), options);
  // Prime some tables so the reader has disk IO to charge from tick 0.
  for (Timestamp t = 0; t < 40; ++t) {
    for (ObjectId o = 0; o < 4; ++o) ASSERT_TRUE(store.Put(t, o, t, o).ok());
  }
  // A dedicated reader hammers table scans (each charges io_stats() under
  // mu_) for the whole run, so a worker-side unlocked write to the same
  // struct overlaps a reader access and trips TSan. LsmStore's internal
  // locking makes the concurrent reads safe — this is a white-box test of
  // exactly that property.
  std::atomic<bool> done{false};
  std::atomic<bool> read_failed{false};
  std::thread reader([&] {
    std::vector<SnapshotPoint> out;
    uint64_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      if (!store.ScanTimestamp(static_cast<Timestamp>(i++ % 40), &out).ok()) {
        read_failed.store(true);
        return;
      }
    }
  });
  for (Timestamp t = 40; t < 400; ++t) {
    for (ObjectId o = 0; o < 4; ++o) {
      ASSERT_TRUE(store.Put(t, o, t, o).ok());
    }
  }
  ASSERT_TRUE(store.Flush().ok());
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_FALSE(read_failed.load());
  EXPECT_EQ(store.num_points(), 1600u);
  // The reader's table scans land in the foreground account, never in
  // background_io_stats() (which only holds merge-input reads).
  EXPECT_GT(store.io_stats().bytes_read, 0u);
}

TEST(LsmStoreTest, NewestVersionWinsAcrossMemtableAndTables) {
  LsmStore store(ScratchDir("lsm_version"));
  ASSERT_TRUE(store.Put(0, 1, 1.0, 1.0).ok());
  ASSERT_TRUE(store.Flush().ok());          // version 1 on disk
  ASSERT_TRUE(store.Put(0, 1, 2.0, 2.0).ok());  // version 2 in memtable
  std::vector<SnapshotPoint> out;
  ASSERT_TRUE(store.ScanTimestamp(0, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].x, 2.0);
  ASSERT_TRUE(store.GetPoints(0, ObjectSet::Of({1}), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].x, 2.0);

  // Flush both and let compaction resolve versions on disk too.
  ASSERT_TRUE(store.Flush().ok());
  ASSERT_TRUE(store.ScanTimestamp(0, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].x, 2.0);
}

TEST(LsmStoreTest, BulkLoadRunsThroughWritePath) {
  RandomWalkSpec spec;
  spec.num_objects = 30;
  spec.num_ticks = 200;  // 6000 rows
  spec.seed = 5;
  const Dataset ds = GenerateRandomWalk(spec);
  LsmStore::Options options;
  options.memtable_limit = 1000;
  LsmStore store(ScratchDir("lsm_bulk"), options);
  ASSERT_TRUE(store.BulkLoad(ds).ok());
  EXPECT_GT(store.num_sstables(), 1u);  // several flushes happened
  EXPECT_EQ(store.num_points(), ds.num_points());
}

TEST(LsmStoreTest, TimestampsTrackInserts) {
  LsmStore store(ScratchDir("lsm_ticks"));
  ASSERT_TRUE(store.Put(5, 1, 0, 0).ok());
  ASSERT_TRUE(store.Put(2, 1, 0, 0).ok());
  ASSERT_TRUE(store.Put(5, 2, 0, 0).ok());
  EXPECT_EQ(store.timestamps(), (std::vector<Timestamp>{2, 5}));
  EXPECT_EQ(store.time_range(), (TimeRange{2, 5}));
}

TEST(LsmStoreTest, TimestampsStaySortedUnderOutOfOrderPuts) {
  // The tick list is maintained eagerly on Put (timestamps() used to
  // rebuild it lazily inside a const method — a data race under concurrent
  // metadata reads), so it must stay correct for any insertion order.
  LsmStore store(ScratchDir("lsm_ticks"));
  for (Timestamp t : {5, 3, 9, 3, 7, 1, 9}) {
    ASSERT_TRUE(store.Put(t, 1, 0.0, 0.0).ok());
  }
  EXPECT_EQ(store.timestamps(), (std::vector<Timestamp>{1, 3, 5, 7, 9}));
  EXPECT_EQ(store.time_range(), (TimeRange{1, 9}));
  // timestamps() on a const ref must not mutate anything.
  const LsmStore& cref = store;
  EXPECT_EQ(cref.timestamps().size(), 5u);
}

TEST(LsmStoreTest, WalSegmentRotationBySizeAndMultiSegmentReplay) {
  const std::string dir = ScratchDir("lsm_wal_rotate");
  LsmStore::Options options;
  options.memtable_limit = 1 << 20;  // never rotate the memtable
  options.background_compaction = false;
  options.wal.segment_bytes = 256;  // a handful of ticks per segment
  {
    LsmStore store(dir, options);
    ASSERT_TRUE(store.init_status().ok());
    EXPECT_EQ(store.active_wal_segments(), 1u);
    for (Timestamp t = 0; t < 40; ++t) {
      std::vector<SnapshotPoint> points;
      for (ObjectId o = 0; o < 4; ++o) {
        points.push_back(SnapshotPoint{o, double(t), double(o)});
      }
      ASSERT_TRUE(store.Append(t, points).ok());
    }
    // The cap is far below 40 ticks of frames, so the active memtable must
    // now be fed by a chain of rotated segments.
    EXPECT_GT(store.active_wal_segments(), 1u);
    EXPECT_EQ(store.num_sstables(), 0u);  // all 160 rows live in WAL only
    // Destroyed without Flush: recovery must replay the whole chain.
  }
  for (int reopen = 0; reopen < 2; ++reopen) {
    // Second reopen proves orphan deletion spared the live rotated
    // segments the first recovery re-adopted.
    LsmStore store(dir, options);
    ASSERT_TRUE(store.init_status().ok()) << store.init_status().ToString();
    EXPECT_EQ(store.num_points(), 160u) << "reopen " << reopen;
    std::vector<SnapshotPoint> out;
    for (Timestamp t = 0; t < 40; ++t) {
      ASSERT_TRUE(store.ScanTimestamp(t, &out).ok());
      ASSERT_EQ(out.size(), 4u) << "tick " << t << " reopen " << reopen;
      EXPECT_DOUBLE_EQ(out[0].x, double(t));
    }
  }
}

TEST(LsmStoreTest, WalSegmentChainResetsWhenMemtableRotates) {
  LsmStore::Options options;
  options.memtable_limit = 1 << 20;
  options.background_compaction = false;
  options.wal.segment_bytes = 128;
  LsmStore store(ScratchDir("lsm_wal_reset"), options);
  for (Timestamp t = 0; t < 20; ++t) {
    ASSERT_TRUE(store.Put(t, 0, t, 0).ok());
  }
  EXPECT_GT(store.active_wal_segments(), 1u);
  // A memtable rotation seals the whole chain with it; the fresh memtable
  // starts over on a single new segment.
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_EQ(store.active_wal_segments(), 1u);
  std::vector<SnapshotPoint> out;
  ASSERT_TRUE(store.ScanTimestamp(7, &out).ok());
  ASSERT_EQ(out.size(), 1u);
}

// Seeded property test of LsmStore::GetPoints and its read snapshot against
// a std::map oracle: out-of-order ticks (including both ends of int32) make
// flushed tables overlap, overwrites make the newest version win across
// memtable and tables.
TEST(LsmStoreTest, GetPointsMatchesOracle) {
  const Timestamp ticks[] = {std::numeric_limits<Timestamp>::min(), -3, 0, 1,
                             std::numeric_limits<Timestamp>::max()};
  LsmStore::Options options;
  options.memtable_limit = 97;
  options.tier_fanout = 3;
  options.background_compaction = false;
  LsmStore store(ScratchDir("lsm_getpoints_oracle"), options);
  std::map<uint64_t, LsmValue> oracle;
  std::mt19937_64 rng(777);
  for (int i = 0; i < 3000; ++i) {
    const Timestamp t = ticks[rng() % 5];
    const ObjectId oid = static_cast<ObjectId>(rng() % 400);
    const LsmValue v{double(i), -double(i)};
    ASSERT_TRUE(store.Put(t, oid, v.x, v.y).ok());
    oracle[MakeKey(t, oid)] = v;
  }
  ASSERT_GT(store.num_sstables(), 1u);
  ASSERT_GT(store.memtable_entries(), 0u);
  auto snapshot_r = store.CreateReadSnapshot();
  ASSERT_TRUE(snapshot_r.ok());
  std::unique_ptr<Store> snapshot = snapshot_r.MoveValue();
  for (int q = 0; q < 200; ++q) {
    const Timestamp t = ticks[q % 5];
    std::vector<ObjectId> ids;  // q % 10 == 0: the empty set
    for (ObjectId oid = 0; oid < 450 && q % 10 != 0; ++oid) {
      if (rng() % (1 + q % 4) == 0) ids.push_back(oid);
    }
    const ObjectSet objects{std::vector<ObjectId>(ids)};
    std::vector<SnapshotPoint> want;
    for (ObjectId oid : ids) {
      auto it = oracle.find(MakeKey(t, oid));
      if (it != oracle.end()) {
        want.push_back(SnapshotPoint{oid, it->second.x, it->second.y});
      }
    }
    for (Store* reader : {static_cast<Store*>(&store), snapshot.get()}) {
      const IoStats before = reader->io_stats();
      std::vector<SnapshotPoint> got;
      ASSERT_TRUE(reader->GetPoints(t, objects, &got).ok());
      ASSERT_EQ(got.size(), want.size()) << "tick " << t;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].oid, want[i].oid);
        EXPECT_EQ(got[i].x, want[i].x);
        EXPECT_EQ(got[i].y, want[i].y);
      }
      const IoStats d = IoStats::Delta(reader->io_stats(), before);
      EXPECT_EQ(d.point_queries, ids.size());
      EXPECT_EQ(d.point_hits, want.size());
      EXPECT_EQ(d.pages_cached, 0u);
      EXPECT_EQ(d.bloom_negative, 0u);
    }
  }
}

// The store-level IoStats model under default options: a tick inside one
// table costs one walk, one read per distinct block, and 24 B per row.
TEST(LsmStoreTest, GetPointsChargesTheDocumentedIoModel) {
  LsmStore::Options options;
  options.background_compaction = false;
  LsmStore store(ScratchDir("lsm_io_model"), options);
  for (ObjectId oid = 0; oid < 400; ++oid) {
    ASSERT_TRUE(store.Put(5, oid, oid, 0).ok());  // blocks of 170 oids
  }
  ASSERT_TRUE(store.Flush().ok());
  ASSERT_EQ(store.num_sstables(), 1u);
  store.io_stats().Clear();
  std::vector<SnapshotPoint> out;
  ASSERT_TRUE(store.GetPoints(5, ObjectSet::Of({1, 2, 200, 1000}), &out).ok());
  ASSERT_EQ(out.size(), 3u);
  const IoStats& io = store.io_stats();
  EXPECT_EQ(io.point_queries, 4u);
  EXPECT_EQ(io.point_hits, 3u);
  EXPECT_EQ(io.sstables_touched, 1u);
  EXPECT_EQ(io.pages_read, 2u);  // blocks 0 and 1
  EXPECT_EQ(io.seeks, 1u);       // adjacent: one run
  EXPECT_EQ(io.pages_cached, 0u);
  EXPECT_EQ(io.bytes_read, 3u * 24);
  EXPECT_EQ(io.bloom_negative, 0u);
}

}  // namespace
}  // namespace k2
