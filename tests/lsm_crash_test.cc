// Fault-injection tests for the crash-safe LSM write path (smoke tier).
// Covers the building blocks — CRC32C, FaultInjectionEnv semantics, WAL
// framing (including randomized truncation / bit-flip properties), atomic
// SSTable publication with named Open() errors, MANIFEST round-trips — and
// LsmStore recovery basics, a sweep of every BulkLoad failpoint, and a
// strided crash-matrix sweep of the Append stream. The exhaustive
// every-failpoint sweep over all fixture families lives in
// lsm_crash_differential_test.cc (slow tier).
#include <cstring>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/env.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "storage/key.h"
#include "storage/lsm/manifest.h"
#include "storage/lsm/sstable.h"
#include "storage/lsm/wal.h"
#include "storage/lsm_store.h"
#include "tests/lsm_crash_util.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::CountCleanOps;
using ::k2::testing::CrashFixture;
using ::k2::testing::CrashScratchDir;
using ::k2::testing::ReadFile;
using ::k2::testing::RunCrashIteration;
using ::k2::testing::StreamTicks;
using ::k2::testing::SweepStoreOptions;
using ::k2::testing::WriteFile;
using FaultMode = FaultInjectionEnv::FaultMode;

// ---------------------------------------------------------------------------
// CRC32C

TEST(Crc32cTest, KnownAnswer) {
  // The canonical CRC-32C check value (RFC 3720 appendix / iSCSI).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, SeedChainsIncrementally) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{17}, data.size()}) {
    const uint32_t part = Crc32c(data.data(), split);
    EXPECT_EQ(Crc32c(data.data() + split, data.size() - split, part), whole)
        << "split at " << split;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string data = "payload under test";
  const uint32_t clean = Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); ++byte) {
    data[byte] ^= 0x10;
    EXPECT_NE(Crc32c(data.data(), data.size()), clean) << "byte " << byte;
    data[byte] ^= 0x10;
  }
}

// ---------------------------------------------------------------------------
// FaultInjectionEnv

TEST(FaultInjectionEnvTest, CrashDropsUnsyncedBytes) {
  const std::string dir = CrashScratchDir("env_crash");
  const std::string path = dir + "/f";
  FaultInjectionEnv env;
  auto file_r = env.NewWritableFile(path);
  ASSERT_TRUE(file_r.ok());
  auto file = file_r.MoveValue();
  ASSERT_TRUE(file->Append("AAAA", 4).ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Append("BBBB", 4).ok());
  EXPECT_EQ(ReadFile(path), "AAAABBBB");  // in the "page cache"

  env.CrashNow();
  EXPECT_TRUE(env.crashed());
  // Power cut: the unsynced suffix is gone, the env is dead.
  EXPECT_EQ(ReadFile(path), "AAAA");
  EXPECT_FALSE(file->Append("C", 1).ok());
  EXPECT_FALSE(file->Sync().ok());
  EXPECT_FALSE(env.NewWritableFile(dir + "/g").ok());
  EXPECT_FALSE(env.RenameFile(path, dir + "/h").ok());
  EXPECT_FALSE(env.ReadFileToString(path).ok());
}

TEST(FaultInjectionEnvTest, FailOpFiresExactlyOnce) {
  const std::string dir = CrashScratchDir("env_failop");
  FaultInjectionEnv env;
  // Op 0: create. Op 1: append (armed). Op 2+: back to normal.
  env.ArmFault(FaultMode::kFailOp, 1);
  auto file_r = env.NewWritableFile(dir + "/f");
  ASSERT_TRUE(file_r.ok());
  auto file = file_r.MoveValue();
  const Status failed = file->Append("AAAA", 4);
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("injected"), std::string::npos);
  EXPECT_TRUE(env.triggered());
  EXPECT_FALSE(env.crashed());
  // One-shot: the env stays alive and the write never reached the file.
  ASSERT_TRUE(file->Append("BBBB", 4).ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Close().ok());
  EXPECT_EQ(ReadFile(dir + "/f"), "BBBB");
  EXPECT_EQ(env.op_count(), 5u);  // create, append, append, sync, close
}

TEST(FaultInjectionEnvTest, TornWriteKeepsPrefixOfUnsyncedTail) {
  const std::string dir = CrashScratchDir("env_torn");
  const std::string path = dir + "/f";
  FaultInjectionEnv env;
  auto file = env.NewWritableFile(path).MoveValue();
  ASSERT_TRUE(file->Append("AAAA", 4).ok());
  ASSERT_TRUE(file->Sync().ok());
  env.ArmFault(FaultMode::kTornWrite, env.op_count());
  EXPECT_FALSE(file->Append("BBBBBBBB", 8).ok());
  EXPECT_TRUE(env.crashed());
  // synced(4) + half of the torn 8-byte append.
  EXPECT_EQ(ReadFile(path), "AAAABBBB");
}

TEST(FaultInjectionEnvTest, RenameTracksSyncedState) {
  const std::string dir = CrashScratchDir("env_rename");
  FaultInjectionEnv env;
  auto file = env.NewWritableFile(dir + "/f.tmp").MoveValue();
  ASSERT_TRUE(file->Append("DATA", 4).ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Close().ok());
  ASSERT_TRUE(env.RenameFile(dir + "/f.tmp", dir + "/f").ok());
  env.CrashNow();
  // The synced bytes follow the file across the rename.
  EXPECT_EQ(ReadFile(dir + "/f"), "DATA");
}

// ---------------------------------------------------------------------------
// WAL framing

std::vector<std::string> MakeRecords(Rng* rng, size_t n) {
  std::vector<std::string> records;
  for (size_t i = 0; i < n; ++i) {
    std::string payload(rng->NextInt(100), '\0');
    for (char& c : payload) c = static_cast<char>('a' + rng->NextInt(26));
    records.push_back(std::move(payload));
  }
  return records;
}

std::string WriteWal(const std::string& path,
                     const std::vector<std::string>& records) {
  auto wal = lsm::WalWriter::Create(Env::Default(), path).MoveValue();
  for (const std::string& r : records) {
    K2_CHECK_OK(wal->AddRecord(r.data(), r.size()));
  }
  K2_CHECK_OK(wal->Sync());
  K2_CHECK_OK(wal->Close());
  return ReadFile(path);
}

std::vector<std::string> Replayed(const std::string& path) {
  std::vector<std::string> got;
  auto n = lsm::ReplayWal(Env::Default(), path,
                          [&](const char* p, size_t len) {
                            got.emplace_back(p, len);
                          });
  K2_CHECK(n.ok());
  K2_CHECK(n.value() == got.size());
  return got;
}

TEST(WalTest, RoundTrip) {
  const std::string dir = CrashScratchDir("wal_rt");
  Rng rng(11);
  const std::vector<std::string> records = MakeRecords(&rng, 50);
  WriteWal(dir + "/wal", records);
  EXPECT_EQ(Replayed(dir + "/wal"), records);
}

TEST(WalTest, MissingFileIsAnError) {
  const std::string dir = CrashScratchDir("wal_missing");
  auto n = lsm::ReplayWal(Env::Default(), dir + "/nope",
                          [](const char*, size_t) {});
  EXPECT_FALSE(n.ok());
}

// Property: truncating the file at ANY byte recovers exactly the records
// whose frames end at or before the cut — never garbage, never a record
// reordered or skipped.
TEST(WalTest, TruncationRecoversLongestValidPrefix) {
  const std::string dir = CrashScratchDir("wal_trunc");
  constexpr uint64_t kSeed = 20260807;
  Rng rng(kSeed);
  const std::vector<std::string> records = MakeRecords(&rng, 40);
  const std::string bytes = WriteWal(dir + "/wal", records);

  // frame_end[i] = offset one past record i's frame.
  std::vector<size_t> frame_end;
  size_t off = 0;
  for (const std::string& r : records) {
    off += 8 + r.size();  // crc32 + len32 + payload
    frame_end.push_back(off);
  }
  ASSERT_EQ(off, bytes.size());

  auto expected_count = [&](size_t cut) {
    size_t n = 0;
    while (n < frame_end.size() && frame_end[n] <= cut) ++n;
    return n;
  };

  std::vector<size_t> cuts = frame_end;  // every boundary ...
  cuts.push_back(0);
  for (int i = 0; i < 120; ++i) {  // ... plus random interior cuts
    cuts.push_back(rng.NextInt(bytes.size() + 1));
  }
  for (size_t cut : cuts) {
    SCOPED_TRACE("seed=" + std::to_string(kSeed) +
                 " cut=" + std::to_string(cut) + "/" +
                 std::to_string(bytes.size()));
    WriteFile(dir + "/cut", bytes.substr(0, cut));
    const std::vector<std::string> got = Replayed(dir + "/cut");
    ASSERT_EQ(got.size(), expected_count(cut));
    for (size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], records[i]);
  }
}

// Property: flipping any single bit inside record i's frame recovers exactly
// records [0, i) — CRC32C detects all single-bit errors, and a corrupt
// length field can only stop replay, not resurrect later frames.
TEST(WalTest, BitFlipRecoversPrecedingRecords) {
  const std::string dir = CrashScratchDir("wal_flip");
  constexpr uint64_t kSeed = 977;
  Rng rng(kSeed);
  const std::vector<std::string> records = MakeRecords(&rng, 30);
  const std::string bytes = WriteWal(dir + "/wal", records);

  std::vector<size_t> frame_begin;
  size_t off = 0;
  for (const std::string& r : records) {
    frame_begin.push_back(off);
    off += 8 + r.size();
  }

  for (int trial = 0; trial < 150; ++trial) {
    const size_t frame = rng.NextInt(records.size());
    const size_t frame_size = 8 + records[frame].size();
    const size_t byte = frame_begin[frame] + rng.NextInt(frame_size);
    const int bit = static_cast<int>(rng.NextInt(8));
    SCOPED_TRACE("seed=" + std::to_string(kSeed) +
                 " trial=" + std::to_string(trial) +
                 " frame=" + std::to_string(frame) +
                 " byte=" + std::to_string(byte) +
                 " bit=" + std::to_string(bit));
    std::string corrupt = bytes;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
    WriteFile(dir + "/flip", corrupt);
    const std::vector<std::string> got = Replayed(dir + "/flip");
    ASSERT_EQ(got.size(), frame);
    for (size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], records[i]);
  }
}

// ---------------------------------------------------------------------------
// SSTable atomic publication + Open validation

std::string BuildTable(Env* env, const std::string& path, int keys,
                       Status* out = nullptr) {
  lsm::SSTableBuilder builder(env, path);
  Status st;
  for (int i = 0; i < keys && st.ok(); ++i) {
    st = builder.Add(MakeKey(i / 10, static_cast<ObjectId>(i % 10)),
                     lsm::LsmValue{static_cast<double>(i), -1.0});
  }
  if (st.ok()) st = builder.Finish();
  if (out != nullptr) *out = st;
  return path;
}

void ExpectTableComplete(const std::string& path, int keys) {
  auto table_r = lsm::SSTable::Open(path, 1);
  ASSERT_TRUE(table_r.ok()) << table_r.status().ToString();
  auto table = table_r.MoveValue();
  ASSERT_EQ(table->num_entries(), static_cast<uint64_t>(keys));
  int seen = 0;
  IoStats stats;
  table->Scan(
      0, ~0ULL,
      [&](uint64_t key, const lsm::LsmValue& v) {
        EXPECT_EQ(v.x, static_cast<double>(seen));
        EXPECT_EQ(key, MakeKey(seen / 10, seen % 10));
        ++seen;
      },
      &stats);
  EXPECT_EQ(seen, keys);
}

// Sweep a crash over every durability op of a table build: afterwards the
// final path either does not exist (at most a .tmp orphan remains) or holds
// a complete, validating table. There is no in-between.
TEST(SSTableCrashTest, PublicationIsAtomicAtEveryFailpoint) {
  constexpr int kKeys = 400;  // 3 blocks
  uint64_t total;
  {
    FaultInjectionEnv env;
    BuildTable(&env, CrashScratchDir("sst_count") + "/t.sst", kKeys);
    total = env.op_count();
  }
  ASSERT_GE(total, 5u);
  for (FaultMode mode : {FaultMode::kCrash, FaultMode::kTornWrite}) {
    for (uint64_t fp = 0; fp < total; ++fp) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " failpoint=" + std::to_string(fp));
      const std::string dir = CrashScratchDir("sst_sweep");
      const std::string path = dir + "/t.sst";
      FaultInjectionEnv env;
      env.ArmFault(mode, fp);
      Status st;
      BuildTable(&env, path, kKeys, &st);
      ASSERT_FALSE(st.ok()) << "failpoint below total must fail the build";
      if (Env::Default()->FileExists(path)) {
        // The rename happened: the table must be complete and valid.
        ExpectTableComplete(path, kKeys);
      }
    }
  }
}

TEST(SSTableCrashTest, AbandonedBuildRemovesTempFile) {
  const std::string dir = CrashScratchDir("sst_abandon");
  {
    lsm::SSTableBuilder builder(Env::Default(), dir + "/t.sst");
    ASSERT_TRUE(builder.Add(MakeKey(0, 0), lsm::LsmValue{1.0, 2.0}).ok());
    // No Finish(): destructor must clean up.
  }
  EXPECT_FALSE(Env::Default()->FileExists(dir + "/t.sst"));
  EXPECT_FALSE(Env::Default()->FileExists(dir + "/t.sst.tmp"));
}

void ExpectOpenFails(const std::string& path, const std::string& needle) {
  auto r = lsm::SSTable::Open(path, 1);
  ASSERT_FALSE(r.ok()) << "expected rejection: " << needle;
  EXPECT_EQ(r.status().code(), StatusCode::kInvalid);
  EXPECT_NE(r.status().message().find(needle), std::string::npos)
      << r.status().ToString();
}

TEST(SSTableCrashTest, OpenRejectsCorruptFilesWithNamedErrors) {
  const std::string dir = CrashScratchDir("sst_corrupt");
  const std::string good = BuildTable(Env::Default(), dir + "/t.sst", 400);
  const std::string bytes = ReadFile(good);
  ASSERT_GT(bytes.size(), 100u);

  WriteFile(dir + "/empty.sst", "");
  ExpectOpenFails(dir + "/empty.sst", "truncated SSTable");

  WriteFile(dir + "/short.sst", bytes.substr(0, 10));
  ExpectOpenFails(dir + "/short.sst", "truncated SSTable");

  std::string bad_magic = bytes;
  bad_magic.back() = static_cast<char>(bad_magic.back() ^ 0xFF);
  WriteFile(dir + "/magic.sst", bad_magic);
  ExpectOpenFails(dir + "/magic.sst", "bad SSTable magic");

  // Flip a byte in the index: footer still parses, meta CRC catches the
  // damage.
  uint64_t index_offset;
  std::memcpy(&index_offset, bytes.data() + bytes.size() - lsm::kFooterSize,
              8);
  ASSERT_LT(index_offset + 3, bytes.size() - lsm::kFooterSize);
  std::string bad_meta = bytes;
  bad_meta[index_offset + 3] = static_cast<char>(bad_meta[index_offset + 3] ^ 1);
  WriteFile(dir + "/meta.sst", bad_meta);
  ExpectOpenFails(dir + "/meta.sst", "SSTable meta checksum mismatch");

  // Chop one byte: the 32 bytes now read as a footer are misaligned garbage.
  WriteFile(dir + "/chop.sst", bytes.substr(0, bytes.size() - 1));
  EXPECT_FALSE(lsm::SSTable::Open(dir + "/chop.sst", 1).ok());

  // Forged footers and indexes: `resealed` recomputes the metadata
  // checksum (footer bytes 16..19, over the index), so only Open's
  // structural checks stand guard.
  const size_t meta_end = bytes.size() - lsm::kFooterSize;
  auto resealed = [&](std::string forged) {
    const uint32_t crc =
        Crc32c(forged.data() + index_offset, meta_end - index_offset);
    std::memcpy(&forged[meta_end + 16], &crc, 4);
    return forged;
  };

  // A table of another format version is refused by version, not parsed
  // with this version's layout.
  std::string old_version = bytes;
  const uint32_t v2 = 2;
  std::memcpy(&old_version[meta_end + 20], &v2, 4);
  WriteFile(dir + "/v2.sst", resealed(old_version));
  ExpectOpenFails(dir + "/v2.sst", "unsupported SSTable version 2");

  // Reads walk the index forward and binary-search inside blocks, so an
  // index that is not first_key <= last_key < next.first_key is refused
  // even under a valid checksum. Overwrites field `field` (0 = first_key)
  // of index entry `block`.
  auto reindexed = [&](size_t block, size_t field, uint64_t value) {
    std::string forged = bytes;
    std::memcpy(&forged[index_offset + block * lsm::kIndexEntrySize + field],
                &value, 8);
    return resealed(std::move(forged));
  };
  uint64_t block0_last;
  std::memcpy(&block0_last, bytes.data() + index_offset + 8, 8);
  WriteFile(dir + "/inverted.sst", reindexed(0, 0, block0_last + 1));
  ExpectOpenFails(dir + "/inverted.sst", "SSTable block index out of order");
  WriteFile(dir + "/touching.sst", reindexed(1, 0, block0_last));
  ExpectOpenFails(dir + "/touching.sst", "SSTable block index out of order");
  WriteFile(dir + "/overlap.sst", reindexed(1, 0, block0_last - 1));
  ExpectOpenFails(dir + "/overlap.sst", "SSTable block index out of order");
}

// ---------------------------------------------------------------------------
// MANIFEST

TEST(ManifestTest, RoundTrip) {
  const std::string dir = CrashScratchDir("manifest_rt");
  lsm::ManifestState state;
  state.next_seq = 42;
  state.live_wals = {7, 9};
  state.tables = {{0, 5, "sstable_5.sst", 123}, {1, 3, "sstable_3.sst", 456}};
  ASSERT_TRUE(lsm::WriteManifest(Env::Default(), dir, state).ok());
  // No .tmp left behind.
  EXPECT_FALSE(Env::Default()->FileExists(dir + "/MANIFEST.tmp"));

  auto read = lsm::ReadManifest(Env::Default(), dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().next_seq, 42u);
  EXPECT_EQ(read.value().live_wals, (std::vector<uint64_t>{7, 9}));
  ASSERT_EQ(read.value().tables.size(), 2u);
  EXPECT_EQ(read.value().tables[0].tier, 0u);
  EXPECT_EQ(read.value().tables[0].seq, 5u);
  EXPECT_EQ(read.value().tables[0].file, "sstable_5.sst");
  EXPECT_EQ(read.value().tables[0].num_entries, 123u);
  EXPECT_EQ(read.value().tables[1].tier, 1u);
}

TEST(ManifestTest, MissingIsNotFound) {
  const std::string dir = CrashScratchDir("manifest_missing");
  auto read = lsm::ReadManifest(Env::Default(), dir);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(ManifestTest, CorruptionIsDetected) {
  const std::string dir = CrashScratchDir("manifest_corrupt");
  lsm::ManifestState state;
  state.next_seq = 9;
  state.tables = {{0, 2, "sstable_2.sst", 10}};
  ASSERT_TRUE(lsm::WriteManifest(Env::Default(), dir, state).ok());
  std::string bytes = ReadFile(dir + "/MANIFEST");

  // Flip a content byte: checksum mismatch.
  std::string flipped = bytes;
  flipped[bytes.find("sstable")] ^= 0x20;
  WriteFile(dir + "/MANIFEST", flipped);
  auto read = lsm::ReadManifest(Env::Default(), dir);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("manifest checksum mismatch"),
            std::string::npos)
      << read.status().ToString();

  // Drop the trailer: parse error.
  WriteFile(dir + "/MANIFEST", bytes.substr(0, bytes.rfind("crc32c")));
  read = lsm::ReadManifest(Env::Default(), dir);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("manifest parse error"),
            std::string::npos)
      << read.status().ToString();
}

// An intact checksum does not make the fields safe to act on: recovery
// sizes its tier list by the tiers read, compaction deletes input files by
// name, and new files are named from next_seq. Each of these forged
// MANIFESTs is a named parse error.
TEST(ManifestTest, RejectsFieldsRecoveryCannotTrust) {
  const std::string dir = CrashScratchDir("manifest_forged");
  lsm::ManifestState good;
  good.next_seq = 9;
  good.live_wals = {7};
  good.tables = {{0, 2, "sstable_2.sst", 10}, {1, 5, "sstable_5.sst", 20}};
  ASSERT_TRUE(lsm::WriteManifest(Env::Default(), dir, good).ok());
  ASSERT_TRUE(lsm::ReadManifest(Env::Default(), dir).ok());

  using Edit = void (*)(lsm::ManifestState*);
  const Edit edits[] = {
      [](lsm::ManifestState* s) { s->tables[0].tier = 4294967295u; },
      [](lsm::ManifestState* s) { s->tables[0].tier = lsm::kMaxTiers; },
      [](lsm::ManifestState* s) { s->tables[0].file = "../sstable_2.sst"; },
      [](lsm::ManifestState* s) { s->tables[0].file = ".."; },
      [](lsm::ManifestState* s) { s->tables[1].seq = 9; },  // == next_seq
      [](lsm::ManifestState* s) { s->live_wals = {7, 12}; },
      [](lsm::ManifestState* s) { s->tables[1].seq = 2; },  // reused
      [](lsm::ManifestState* s) { s->live_wals = {2}; },   // a table's seq
      [](lsm::ManifestState* s) { s->tables[1].file = "sstable_2.sst"; },
  };
  for (size_t i = 0; i < std::size(edits); ++i) {
    SCOPED_TRACE("edit " + std::to_string(i));
    lsm::ManifestState forged = good;
    edits[i](&forged);
    ASSERT_TRUE(lsm::WriteManifest(Env::Default(), dir, forged).ok());
    auto read = lsm::ReadManifest(Env::Default(), dir);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kInvalid);
    EXPECT_NE(read.status().message().find("manifest parse error"),
              std::string::npos)
        << read.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// LsmStore recovery

// Recovery sizes its tier list as tier + 1, which wraps to 0 for tier
// 4294967295, so an unchecked tier would index past the list. A forged
// tier fails the reopen with a named error instead.
TEST(LsmStoreCrashTest, ForgedManifestTierFailsRecoveryCleanly) {
  const std::string dir = CrashScratchDir("store_forged_tier");
  {
    LsmStore store(dir, SweepStoreOptions(nullptr));
    ASSERT_TRUE(store.Append(0, {{1, 1.0, 2.0}}).ok());
    ASSERT_TRUE(store.Flush().ok());
    ASSERT_EQ(store.num_sstables(), 1u);
  }
  auto read = lsm::ReadManifest(Env::Default(), dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  lsm::ManifestState state = read.MoveValue();
  ASSERT_EQ(state.tables.size(), 1u);
  state.tables[0].tier = 4294967295u;
  ASSERT_TRUE(lsm::WriteManifest(Env::Default(), dir, state).ok());

  LsmStore reopened(dir, SweepStoreOptions(nullptr));
  EXPECT_EQ(reopened.init_status().code(), StatusCode::kInvalid);
  EXPECT_NE(reopened.init_status().message().find("manifest parse error"),
            std::string::npos)
      << reopened.init_status().ToString();
}

CrashFixture WalkFixture() {
  RandomWalkSpec spec;
  spec.seed = 7;
  spec.num_objects = 14;
  spec.num_ticks = 36;
  spec.area = 55.0;
  spec.step = 7.0;
  return {"walk", GenerateRandomWalk(spec), MiningParams{2, 4, 10.0}};
}

TEST(LsmStoreCrashTest, SyncedTicksSurvivePowerCut) {
  const CrashFixture fix = WalkFixture();
  const std::string dir = CrashScratchDir("store_power_cut");
  FaultInjectionEnv env;
  {
    LsmStore store(dir, SweepStoreOptions(&env));
    ASSERT_TRUE(store.init_status().ok());
    const std::vector<Timestamp> durable = StreamTicks(&store, fix.data);
    ASSERT_EQ(durable.size(), fix.data.timestamps().size());
    env.CrashNow();  // power cut with the store still open
  }
  LsmStore recovered(dir, SweepStoreOptions(nullptr));
  ASSERT_TRUE(recovered.init_status().ok())
      << recovered.init_status().ToString();
  EXPECT_EQ(recovered.timestamps(), fix.data.timestamps());
  std::vector<SnapshotPoint> points;
  for (Timestamp t : fix.data.timestamps()) {
    ASSERT_TRUE(recovered.ScanTimestamp(t, &points).ok());
    EXPECT_EQ(points, SnapshotPoints(fix.data, t)) << "tick " << t;
  }
}

TEST(LsmStoreCrashTest, UnsyncedAppendIsLostSyncedAppendIsNot) {
  const std::string dir = CrashScratchDir("store_unsynced");
  FaultInjectionEnv env;
  LsmStoreOptions options = SweepStoreOptions(&env);
  options.memtable_limit = 1 << 20;  // no flush: durability via WAL only
  {
    LsmStore store(dir, options);
    ASSERT_TRUE(store.init_status().ok());
    for (Timestamp t = 0; t < 5; ++t) {
      ASSERT_TRUE(store.Append(t, {{0, 1.0 * t, 2.0}, {1, 3.0, 4.0}}).ok());
    }
  }
  {
    // Reopened without the per-tick sync, the next tick sits in the WAL
    // writer / page cache only.
    options.wal_sync_every_append = false;
    LsmStore store(dir, options);
    ASSERT_TRUE(store.init_status().ok());
    ASSERT_TRUE(store.Append(5, {{0, 9.0, 9.0}}).ok());
    env.CrashNow();
  }
  LsmStore recovered(dir, SweepStoreOptions(nullptr));
  ASSERT_TRUE(recovered.init_status().ok());
  EXPECT_EQ(recovered.timestamps(),
            (std::vector<Timestamp>{0, 1, 2, 3, 4}));
}

TEST(LsmStoreCrashTest, ReopenAfterCleanRunRecoversEverything) {
  const CrashFixture fix = WalkFixture();
  const std::string dir = CrashScratchDir("store_reopen");
  {
    LsmStore store(dir, SweepStoreOptions(nullptr));
    ASSERT_TRUE(store.init_status().ok());
    StreamTicks(&store, fix.data);
    // Destructor closes the WAL without flushing the memtable.
  }
  // Plant orphans that recovery must sweep (not in the MANIFEST).
  WriteFile(dir + "/sstable_999.sst", "garbage");
  WriteFile(dir + "/sstable_998.sst.tmp", "garbage");
  WriteFile(dir + "/wal_997.log", "garbage");

  LsmStore recovered(dir, SweepStoreOptions(nullptr));
  ASSERT_TRUE(recovered.init_status().ok())
      << recovered.init_status().ToString();
  EXPECT_EQ(recovered.timestamps(), fix.data.timestamps());
  EXPECT_FALSE(Env::Default()->FileExists(dir + "/sstable_999.sst"));
  EXPECT_FALSE(Env::Default()->FileExists(dir + "/sstable_998.sst.tmp"));
  EXPECT_FALSE(Env::Default()->FileExists(dir + "/wal_997.log"));

  auto mined = MineK2Hop(&recovered, fix.params);
  ASSERT_TRUE(mined.ok());
  auto batch_store = k2::testing::MakeMemStore(fix.data);
  auto expected = MineK2Hop(batch_store.get(), fix.params);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(mined.value(), expected.value());
}

TEST(LsmStoreCrashTest, WriteErrorIsStickyAndBulkLoadResets) {
  const CrashFixture fix = WalkFixture();
  const std::string dir = CrashScratchDir("store_sticky");
  FaultInjectionEnv env;
  LsmStoreOptions options = SweepStoreOptions(&env);
  options.background_compaction = true;
  options.max_pending_memtables = 1;
  LsmStore store(dir, options);
  ASSERT_TRUE(store.init_status().ok());

  // Fail one op somewhere inside the flush/compaction machinery.
  env.ArmFault(FaultMode::kFailOp, env.op_count() + 40);
  StreamTicks(&store, fix.data);
  Status flush = store.Flush();
  ASSERT_FALSE(flush.ok() && store.write_error().ok())
      << "injected op failure never surfaced";
  // Sticky: writes keep failing, reads keep working.
  EXPECT_FALSE(store.Append(10000, {{0, 1.0, 1.0}}).ok());
  std::vector<SnapshotPoint> points;
  EXPECT_TRUE(store.ScanTimestamp(fix.data.timestamps()[0], &points).ok());

  // BulkLoad wipes state and clears the error (the fault was one-shot).
  ASSERT_TRUE(store.BulkLoad(fix.data).ok());
  EXPECT_TRUE(store.write_error().ok());
  EXPECT_EQ(store.timestamps(), fix.data.timestamps());
  EXPECT_TRUE(store.Append(10000, {{0, 1.0, 1.0}}).ok());
}

// BulkLoad publishes its one table before the one MANIFEST commit that
// makes it live, so a crash, torn write or failed op at any of its
// failpoints recovers the store empty or complete, never in part. After
// the reopen no `.tmp` or unlisted `.sst` file is left, and mining (after a
// clean reload where the load was lost) equals the memory store.
TEST(LsmStoreCrashTest, BulkLoadCrashSweepRecoversEmptyOrComplete) {
  const CrashFixture fix = WalkFixture();
  const std::vector<Convoy> expected = [&] {
    auto store = k2::testing::MakeMemStore(fix.data);
    auto r = MineK2Hop(store.get(), fix.params);
    K2_CHECK(r.ok());
    return r.MoveValue();
  }();
  uint64_t load_ops;
  {
    FaultInjectionEnv env;  // unarmed: counts only
    LsmStore store(CrashScratchDir("bulk_count"), SweepStoreOptions(&env));
    ASSERT_TRUE(store.init_status().ok());
    const uint64_t before = env.op_count();
    ASSERT_TRUE(store.BulkLoad(fix.data).ok());
    load_ops = env.op_count() - before;
  }
  ASSERT_GT(load_ops, 10u);
  for (FaultMode mode :
       {FaultMode::kCrash, FaultMode::kTornWrite, FaultMode::kFailOp}) {
    for (uint64_t fp = 0; fp <= load_ops; ++fp) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " failpoint=" + std::to_string(fp));
      const std::string dir = CrashScratchDir("bulk_sweep");
      {
        FaultInjectionEnv env;
        LsmStore store(dir, SweepStoreOptions(&env));
        ASSERT_TRUE(store.init_status().ok());
        env.ArmFault(mode, fp);
        // A fault in best-effort cleanup lets the load succeed.
        (void)store.BulkLoad(fix.data);
      }
      LsmStore recovered(dir, SweepStoreOptions(nullptr));
      ASSERT_TRUE(recovered.init_status().ok())
          << recovered.init_status().ToString();
      const bool complete = recovered.num_points() > 0;
      if (complete) {
        EXPECT_EQ(recovered.num_points(), fix.data.num_points());
        ASSERT_EQ(recovered.timestamps(), fix.data.timestamps());
        std::vector<SnapshotPoint> points;
        for (Timestamp t : fix.data.timestamps()) {
          ASSERT_TRUE(recovered.ScanTimestamp(t, &points).ok());
          ASSERT_EQ(points, SnapshotPoints(fix.data, t)) << "tick " << t;
        }
      } else {
        EXPECT_TRUE(recovered.timestamps().empty());
      }
      size_t table_files = 0;
      for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        const std::string ext = entry.path().extension().string();
        EXPECT_NE(ext, ".tmp") << entry.path();
        if (ext == ".sst") ++table_files;
      }
      EXPECT_EQ(table_files, recovered.num_sstables());
      if (!complete) {
        ASSERT_TRUE(recovered.BulkLoad(fix.data).ok());
      }
      auto mined = MineK2Hop(&recovered, fix.params);
      ASSERT_TRUE(mined.ok()) << mined.status().ToString();
      EXPECT_EQ(mined.value(), expected);
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
}

// ---------------------------------------------------------------------------
// Crash matrix (strided smoke slice; the full sweep is in the slow suite)

TEST(LsmStoreCrashTest, StridedCrashMatrixSyncMode) {
  const CrashFixture fix = WalkFixture();
  const std::vector<Convoy> expected = [&] {
    auto store = k2::testing::MakeMemStore(fix.data);
    auto r = MineK2Hop(store.get(), fix.params);
    K2_CHECK(r.ok());
    return r.MoveValue();
  }();
  const uint64_t total = CountCleanOps(fix, "smoke", /*background=*/false);
  ASSERT_GT(total, 20u);
  for (FaultMode mode :
       {FaultMode::kCrash, FaultMode::kTornWrite, FaultMode::kFailOp}) {
    for (uint64_t fp = 0; fp < total + 2; fp += 7) {
      RunCrashIteration(fix, mode, fp, expected, /*background=*/false,
                        "smoke_sync");
    }
  }
}

TEST(LsmStoreCrashTest, RandomCrashMatrixBackgroundMode) {
  const CrashFixture fix = WalkFixture();
  const std::vector<Convoy> expected = [&] {
    auto store = k2::testing::MakeMemStore(fix.data);
    auto r = MineK2Hop(store.get(), fix.params);
    K2_CHECK(r.ok());
    return r.MoveValue();
  }();
  const uint64_t total = CountCleanOps(fix, "smoke_bg", /*background=*/true);
  Rng rng(4242);
  for (int i = 0; i < 12; ++i) {
    const auto mode =
        static_cast<FaultMode>(1 + rng.NextInt(3));  // kFailOp..kTornWrite
    const uint64_t fp = rng.NextInt(total + 2);
    RunCrashIteration(fix, mode, fp, expected, /*background=*/true,
                      "smoke_bg");
  }
}

}  // namespace
}  // namespace k2
