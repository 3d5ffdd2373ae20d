// Seeded mutation fuzzer for the LSM recovery decoders, ReplayWal and
// ReadManifest. A valid WAL segment and a valid MANIFEST are written once;
// every iteration flips bits of one, truncates or extends it, or forges its
// content under a re-sealed checksum, and decodes the result.
//
//  * ReplayWal must deliver exactly the longest prefix of well-framed,
//    checksummed records, which includes every record the damage could not
//    reach.
//  * ReadManifest must return a named error or a state recovery can trust;
//    unless the checksum was forged, that state is the pristine one.
//
// Two regression inputs pin what recovery adds on top of the decoders: the
// LSM store is append-only, so a well-framed WAL record whose key does not
// ascend, and a MANIFEST whose tables overlap in key range, fail the
// reopen with named errors.
//
// Under ASan+UBSan (ctest label `fuzz`) a read outside a file fails the run.
// The mutation sequences are fixed by the seed; each loop is time-boxed, so
// a slow (sanitized) build covers a prefix of the same sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/crc32c.h"
#include "common/env.h"
#include "storage/key.h"
#include "storage/lsm/manifest.h"
#include "storage/lsm/wal.h"
#include "storage/lsm_store.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::ReadFile;
using ::k2::testing::ScratchDir;
using ::k2::testing::WriteFile;

constexpr uint64_t kSeed = 0x5eedc0de;
constexpr auto kTimeBox = std::chrono::milliseconds(1000);
constexpr int kMaxIterations = 20000;
constexpr size_t kFrameHeader = 8;  // crc32c + payload length

void FlipBits(std::string* bytes, std::mt19937_64* rng) {
  for (int i = 0; i < 1 + static_cast<int>((*rng)() % 3); ++i) {
    const size_t at = (*rng)() % bytes->size();
    (*bytes)[at] = static_cast<char>((*bytes)[at] ^ (1u << ((*rng)() % 8)));
  }
}

void AppendGarbage(std::string* bytes, std::mt19937_64* rng) {
  for (uint64_t i = 1 + (*rng)() % 64; i > 0; --i) {
    bytes->push_back(static_cast<char>((*rng)()));
  }
}

/// Length of the common prefix of two files: where the damage starts.
size_t FirstDamagedByte(const std::string& a, const std::string& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return i;
  }
  return n;
}

// ---------------------------------------------------------------------------
// WAL

/// The pristine segment: records of varied sizes, empty ones included,
/// written through WalWriter, and where each frame starts.
struct PristineWal {
  std::vector<std::string> records;
  std::vector<size_t> offsets;  // frame i starts at offsets[i]
  std::string bytes;
};

PristineWal BuildPristineWal(const std::string& path) {
  PristineWal p;
  std::mt19937_64 rng(kSeed);
  auto writer = lsm::WalWriter::Create(Env::Default(), path).MoveValue();
  size_t offset = 0;
  for (int i = 0; i < 40; ++i) {
    std::string record(rng() % 3 == 0 ? 0 : rng() % 200, '\0');
    for (char& c : record) c = static_cast<char>(rng());
    K2_CHECK(writer->AddRecord(record.data(), record.size()).ok());
    p.offsets.push_back(offset);
    offset += kFrameHeader + record.size();
    p.records.push_back(std::move(record));
  }
  K2_CHECK(writer->Close().ok());
  p.bytes = ReadFile(path);
  K2_CHECK(p.bytes.size() == offset);
  return p;
}

/// Appends one frame holding `payload` with its checksum.
void AppendFrame(std::string* bytes, const std::string& payload) {
  const uint32_t crc = Crc32c(payload.data(), payload.size());
  const uint32_t len = static_cast<uint32_t>(payload.size());
  bytes->append(reinterpret_cast<const char*>(&crc), 4);
  bytes->append(reinterpret_cast<const char*>(&len), 4);
  bytes->append(payload);
}

/// Whether a well-framed record with a matching checksum starts at
/// `offset`; sets *len to its payload length.
bool FrameAt(const std::string& bytes, size_t offset, uint32_t* len) {
  if (bytes.size() - offset < kFrameHeader) return false;
  uint32_t crc;
  std::memcpy(&crc, bytes.data() + offset, 4);
  std::memcpy(len, bytes.data() + offset + 4, 4);
  if (*len > bytes.size() - offset - kFrameHeader) return false;
  return Crc32c(bytes.data() + offset + kFrameHeader, *len) == crc;
}

std::string MutateWal(const PristineWal& p, std::mt19937_64* rng) {
  std::string bytes = p.bytes;
  const size_t frame = (*rng)() % p.records.size();
  const size_t at = p.offsets[frame];
  switch ((*rng)() % 6) {
    case 0:  // truncate anywhere (a torn tail)
      bytes.resize((*rng)() % bytes.size());
      break;
    case 1:  // extend with garbage
      AppendGarbage(&bytes, rng);
      break;
    case 2:  // extend with a valid frame: replay must deliver it
    {
      std::string payload((*rng)() % 32, '\0');
      for (char& c : payload) c = static_cast<char>((*rng)());
      AppendFrame(&bytes, payload);
      break;
    }
    case 3:  // forge a frame's length and re-seal its checksum where the new
             // extent fits, so every later frame is misaligned
    {
      const uint32_t len = (*rng)() % 2 == 0
                               ? static_cast<uint32_t>((*rng)())
                               : static_cast<uint32_t>((*rng)() % 256);
      std::memcpy(&bytes[at + 4], &len, 4);
      if (len <= bytes.size() - at - kFrameHeader) {
        const uint32_t crc = Crc32c(bytes.data() + at + kFrameHeader, len);
        std::memcpy(&bytes[at], &crc, 4);
      }
      break;
    }
    case 4:  // forge a frame's payload and re-seal its checksum
    {
      const size_t n = p.records[frame].size();
      for (size_t i = 0; i < n; i += 1 + (*rng)() % 8) {
        bytes[at + kFrameHeader + i] = static_cast<char>((*rng)());
      }
      const uint32_t crc = Crc32c(bytes.data() + at + kFrameHeader, n);
      std::memcpy(&bytes[at], &crc, 4);
      break;
    }
    default:  // flip bits anywhere
      FlipBits(&bytes, rng);
      break;
  }
  return bytes;
}

TEST(WalFuzzTest, ReplayDeliversTheLongestValidPrefix) {
  const std::string dir = ScratchDir("wal_fuzz");
  const PristineWal p = BuildPristineWal(dir + "/pristine.log");

  std::mt19937_64 rng(kSeed);
  const auto deadline = std::chrono::steady_clock::now() + kTimeBox;
  int iterations = 0;
  size_t shortened = 0;
  for (; iterations < kMaxIterations &&
         std::chrono::steady_clock::now() < deadline;
       ++iterations) {
    SCOPED_TRACE("iteration " + std::to_string(iterations));
    const std::string bytes = MutateWal(p, &rng);
    const std::string path = dir + "/mutant.log";
    WriteFile(path, bytes);
    std::vector<std::string> got;
    auto replayed = lsm::ReplayWal(
        Env::Default(), path,
        [&](const char* payload, size_t n) { got.emplace_back(payload, n); });
    // The file exists, so damage is never an error: it ends the prefix.
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    ASSERT_EQ(replayed.value(), got.size());

    // The delivered records are the file's frames, one after another...
    size_t offset = 0;
    uint32_t len = 0;
    for (const std::string& record : got) {
      ASSERT_TRUE(FrameAt(bytes, offset, &len)) << "offset " << offset;
      ASSERT_EQ(len, record.size());
      ASSERT_EQ(bytes.compare(offset + kFrameHeader, len, record), 0);
      offset += kFrameHeader + len;
    }
    // ...up to the first place no valid frame starts.
    EXPECT_FALSE(FrameAt(bytes, offset, &len))
        << "replay stopped early at " << offset;
    // Every pristine frame that ends before the damage is delivered as is.
    const size_t damage = FirstDamagedByte(p.bytes, bytes);
    size_t intact = 0;
    while (intact < p.records.size() &&
           p.offsets[intact] + kFrameHeader + p.records[intact].size() <=
               damage) {
      ++intact;
    }
    ASSERT_GE(got.size(), intact);
    for (size_t i = 0; i < intact; ++i) ASSERT_EQ(got[i], p.records[i]);
    if (got.size() < p.records.size()) ++shortened;
    if (::testing::Test::HasFatalFailure()) return;
  }
  RecordProperty("iterations", iterations);
  // Enough of the sequence ran to reach both outcomes.
  EXPECT_GT(iterations, 50);
  EXPECT_GT(shortened, 0u);
  EXPECT_LT(shortened, static_cast<size_t>(iterations));
}

/// A checksummed WAL record holding one row, framed as LsmStore logs it:
/// [u8 type = 1][u32 count][count * (u64 key, f64 x, f64 y)].
std::string RowFrame(Timestamp t, ObjectId oid) {
  std::string payload(1, '\1');
  const uint32_t count = 1;
  const uint64_t key = MakeKey(t, oid);
  const double xy = 0.5;
  payload.append(reinterpret_cast<const char*>(&count), 4);
  payload.append(reinterpret_cast<const char*>(&key), 8);
  payload.append(reinterpret_cast<const char*>(&xy), 8);
  payload.append(reinterpret_cast<const char*>(&xy), 8);
  std::string frame;
  AppendFrame(&frame, payload);
  return frame;
}

/// Appends `frame` to the store's live WAL segment, the one recovery
/// replays last.
void AppendToLiveWal(const std::string& dir, const std::string& frame) {
  auto manifest = lsm::ReadManifest(Env::Default(), dir);
  K2_CHECK(manifest.ok() && !manifest.value().live_wals.empty());
  const std::string path =
      dir + "/wal_" + std::to_string(manifest.value().live_wals.back()) +
      ".log";
  WriteFile(path, ReadFile(path) + frame);
}

TEST(WalFuzzTest, RecoveryRejectsRecordsWhoseKeysDoNotAscend) {
  LsmStoreOptions options;
  options.background_compaction = false;
  // Tick 2 again after tick 3 in the memtable's own WAL, and tick 2 again
  // below a flushed table's last key.
  for (bool flushed : {false, true}) {
    SCOPED_TRACE(flushed ? "below a table" : "within the WAL");
    const std::string dir = ScratchDir("wal_order");
    {
      LsmStore store(dir, options);
      for (Timestamp t = 0; t < 4; ++t) {
        ASSERT_TRUE(store.Append(t, {{0, 1.0, 1.0}, {1, 2.0, 2.0}}).ok());
      }
      if (flushed) {
        ASSERT_TRUE(store.Flush().ok());
      }
    }
    AppendToLiveWal(dir, RowFrame(2, 1));
    LsmStore reopened(dir, options);
    EXPECT_EQ(reopened.init_status().code(), StatusCode::kInvalid);
    EXPECT_NE(reopened.init_status().message().find(
                  "wal record out of order"),
              std::string::npos)
        << reopened.init_status().ToString();
  }
  // The same frame one tick past the data replays as a row.
  const std::string dir = ScratchDir("wal_order_ok");
  {
    LsmStore store(dir, options);
    ASSERT_TRUE(store.Append(0, {{0, 1.0, 1.0}}).ok());
  }
  AppendToLiveWal(dir, RowFrame(1, 1));
  LsmStore reopened(dir, options);
  ASSERT_TRUE(reopened.init_status().ok()) << reopened.init_status().ToString();
  EXPECT_EQ(reopened.timestamps(), (std::vector<Timestamp>{0, 1}));
}

// ---------------------------------------------------------------------------
// MANIFEST

lsm::ManifestState PristineState() {
  lsm::ManifestState state;
  state.next_seq = 40;
  state.live_wals = {31, 33, 39};
  state.tables = {{0, 38, "sstable_38.sst", 1200},
                  {0, 36, "sstable_36.sst", 977},
                  {1, 30, "sstable_30.sst", 4810},
                  {2, 12, "sstable_12.sst", 19023}};
  return state;
}

bool SameState(const lsm::ManifestState& a, const lsm::ManifestState& b) {
  auto fields = [](const lsm::ManifestState& s) {
    std::vector<std::tuple<uint32_t, uint64_t, std::string, uint64_t>> tables;
    for (const lsm::ManifestTable& t : s.tables) {
      tables.emplace_back(t.tier, t.seq, t.file, t.num_entries);
    }
    return std::tuple(s.next_seq, s.live_wals, tables);
  };
  return fields(a) == fields(b);
}

/// `body` (everything above the trailer line) with a matching trailer.
std::string Reseal(const std::string& body) {
  char trailer[32];
  std::snprintf(trailer, sizeof(trailer), "crc32c %08x\n",
                Crc32c(body.data(), body.size()));
  return body + trailer;
}

/// Replaces one whitespace-separated token of `body` with a value a parser
/// might take at face value.
void ReplaceToken(std::string* body, std::mt19937_64* rng) {
  static const char* const kHostile[] = {
      "0",  "-1", "63", "64", "4294967295", "4294967296",
      "18446744073709551615", "18446744073709551616", "40", "x", ".", "..",
      "../sstable_38.sst", "/tmp/x", "sstable_36.sst", "table", "wal",
      "next_seq", "+7", "0x10"};
  std::vector<std::pair<size_t, size_t>> tokens;  // (start, length)
  for (size_t i = 0; i < body->size();) {
    if ((*body)[i] == ' ' || (*body)[i] == '\n') {
      ++i;
      continue;
    }
    const size_t start = i;
    while (i < body->size() && (*body)[i] != ' ' && (*body)[i] != '\n') ++i;
    tokens.emplace_back(start, i - start);
  }
  const auto [start, length] = tokens[(*rng)() % tokens.size()];
  body->replace(start, length,
                kHostile[(*rng)() % (sizeof(kHostile) / sizeof(kHostile[0]))]);
}

/// Deletes, duplicates or moves one line of `body`.
void EditLine(std::string* body, std::mt19937_64* rng) {
  std::vector<std::string> lines;
  for (size_t i = 0; i < body->size();) {
    const size_t nl = body->find('\n', i);
    lines.push_back(body->substr(i, nl + 1 - i));
    i = nl + 1;
  }
  const size_t from = (*rng)() % lines.size();
  const size_t to = (*rng)() % lines.size();
  const std::string line = lines[from];
  switch ((*rng)() % 3) {
    case 0:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(from));
      break;
    case 1:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(to), line);
      break;
    default:
      std::swap(lines[from], lines[to]);
      break;
  }
  body->clear();
  for (const std::string& l : lines) *body += l;
}

/// Mutates the pristine MANIFEST; sets *forged when the result carries a
/// re-sealed checksum over changed content.
std::string MutateManifest(const std::string& pristine, std::mt19937_64* rng,
                           bool* forged) {
  const uint64_t kind = (*rng)() % 6;
  *forged = kind >= 2 && kind <= 4;
  if (*forged) {  // edit the body, then re-seal
    std::string body = pristine.substr(0, pristine.rfind("crc32c "));
    if (kind == 2) ReplaceToken(&body, rng);
    if (kind == 3) EditLine(&body, rng);
    if (kind == 4) FlipBits(&body, rng);
    return Reseal(body);
  }
  std::string bytes = pristine;
  if (kind == 0) {
    bytes.resize((*rng)() % bytes.size());  // truncate anywhere
  } else if (kind == 1) {
    AppendGarbage(&bytes, rng);
  } else {
    FlipBits(&bytes, rng);
  }
  return bytes;
}

TEST(ManifestFuzzTest, DamagedManifestsFailCleanlyOrReadTrustworthy) {
  const std::string dir = ScratchDir("manifest_fuzz");
  const std::string echo_dir = ScratchDir("manifest_fuzz_echo");
  const lsm::ManifestState pristine_state = PristineState();
  ASSERT_TRUE(lsm::WriteManifest(Env::Default(), dir, pristine_state).ok());
  const std::string pristine = ReadFile(dir + "/" + lsm::kManifestName);

  std::mt19937_64 rng(kSeed);
  const auto deadline = std::chrono::steady_clock::now() + kTimeBox;
  int iterations = 0, accepted = 0;
  for (; iterations < kMaxIterations &&
         std::chrono::steady_clock::now() < deadline;
       ++iterations) {
    SCOPED_TRACE("iteration " + std::to_string(iterations));
    bool forged = false;
    const std::string bytes = MutateManifest(pristine, &rng, &forged);
    WriteFile(dir + "/" + lsm::kManifestName, bytes);
    auto read = lsm::ReadManifest(Env::Default(), dir);
    if (!read.ok()) {
      ASSERT_EQ(read.status().code(), StatusCode::kInvalid)
          << read.status().ToString();
      EXPECT_EQ(read.status().message().rfind("manifest ", 0), 0u)
          << read.status().ToString();
      continue;
    }
    ++accepted;
    const lsm::ManifestState& state = read.value();
    // Without a forged checksum, whatever reads is the pristine state.
    if (!forged) {
      EXPECT_TRUE(SameState(state, pristine_state)) << bytes;
    }
    // What recovery acts on: tiers index a list, files are deleted by name,
    // and new seqs are allocated from next_seq.
    std::set<uint64_t> seqs(state.live_wals.begin(), state.live_wals.end());
    std::set<std::string> files;
    for (const lsm::ManifestTable& t : state.tables) {
      EXPECT_LT(t.tier, lsm::kMaxTiers) << bytes;
      EXPECT_FALSE(t.file.empty() || t.file == "." || t.file == "..") << bytes;
      EXPECT_EQ(t.file.find('/'), std::string::npos) << bytes;
      seqs.insert(t.seq);
      files.insert(t.file);
    }
    EXPECT_EQ(seqs.size(), state.live_wals.size() + state.tables.size());
    EXPECT_EQ(files.size(), state.tables.size());
    EXPECT_TRUE(seqs.empty() || *seqs.rbegin() < state.next_seq) << bytes;
    // An accepted state writes back and reads as itself.
    ASSERT_TRUE(lsm::WriteManifest(Env::Default(), echo_dir, state).ok());
    auto echo = lsm::ReadManifest(Env::Default(), echo_dir);
    ASSERT_TRUE(echo.ok()) << echo.status().ToString() << "\n" << bytes;
    EXPECT_TRUE(SameState(echo.value(), state)) << bytes;
    if (::testing::Test::HasFailure()) return;
  }
  RecordProperty("iterations", iterations);
  RecordProperty("accepted", accepted);
  EXPECT_GT(iterations, 50);
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, iterations);
}

// Every key lives in one source, so recovery refuses a MANIFEST whose
// tables overlap in key range — here a copy of a live table listed under a
// second, otherwise valid name.
TEST(ManifestFuzzTest, RecoveryRejectsTablesThatOverlap) {
  const std::string dir = ScratchDir("manifest_overlap");
  LsmStoreOptions options;
  options.background_compaction = false;
  {
    LsmStore store(dir, options);
    for (Timestamp t = 0; t < 10; ++t) {
      ASSERT_TRUE(store.Append(t, {{0, 1.0, 1.0}}).ok());
      if (t == 4 || t == 9) {
        ASSERT_TRUE(store.Flush().ok());
      }
    }
    ASSERT_EQ(store.num_sstables(), 2u);
  }
  // Key-disjoint tables, listed as they are, reopen fine.
  { ASSERT_TRUE(LsmStore(dir, options).init_status().ok()); }
  auto read = lsm::ReadManifest(Env::Default(), dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  lsm::ManifestState state = read.MoveValue();
  lsm::ManifestTable copy = state.tables.front();
  copy.seq = state.next_seq++;
  copy.file = "sstable_" + std::to_string(copy.seq) + ".sst";
  WriteFile(dir + "/" + copy.file,
            ReadFile(dir + "/" + state.tables.front().file));
  state.tables.push_back(copy);
  ASSERT_TRUE(lsm::WriteManifest(Env::Default(), dir, state).ok());

  LsmStore reopened(dir, options);
  EXPECT_EQ(reopened.init_status().code(), StatusCode::kInvalid);
  EXPECT_NE(reopened.init_status().message().find("manifest tables overlap"),
            std::string::npos)
      << reopened.init_status().ToString();
}

}  // namespace
}  // namespace k2
