// Seeded mutation fuzzer for the SSTable reader. A valid table is built
// once; every iteration flips bytes of it, truncates or extends it, or
// forges its metadata (damage plus a re-sealed checksum), writes the
// result, and drives Open, MultiGet and Scan over the damaged file. Each
// call must either return a named error Status or rows that are exact
// wherever the damage could not reach. Under ASan+UBSan (ctest label
// `fuzz`) a read outside the mapping or a misaligned entry access fails the
// run.
//
// The mutation sequence is fixed by the seed; the loop is time-boxed, so a
// slow (sanitized) build covers a prefix of the same sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <random>
#include <set>

#include "common/crc32c.h"
#include "storage/key.h"
#include "storage/lsm/sstable.h"
#include "storage/store.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::ReadFile;
using ::k2::testing::ScratchDir;
using ::k2::testing::WriteFile;
using lsm::kEntrySize;
using lsm::kFooterSize;
using lsm::LsmValue;
using lsm::SSTable;
using lsm::SSTableBuilder;

constexpr uint64_t kSeed = 0x5eedf022;
constexpr auto kTimeBox = std::chrono::milliseconds(1500);
constexpr int kMaxIterations = 20000;
constexpr size_t kBlockBytes = lsm::kBlockEntries * kEntrySize;

/// The pristine table: rows at ticks across the int32 range, several
/// blocks per tick, and the bytes of its published file.
struct Pristine {
  std::map<uint64_t, LsmValue> rows;
  std::vector<uint64_t> keys;  // rows' keys, ascending
  std::string bytes;
  uint64_t index_offset = 0;  // end of the data blocks
};

Pristine BuildPristine(const std::string& path) {
  Pristine p;
  std::mt19937_64 rng(kSeed);
  for (Timestamp t : {std::numeric_limits<Timestamp>::min(), 0, 1,
                      std::numeric_limits<Timestamp>::max()}) {
    for (ObjectId oid = 0; oid < 500; ++oid) {
      if (rng() % 3 != 0) {
        p.rows[MakeKey(t, oid)] = {double(rng() % 1000), double(oid)};
      }
    }
  }
  SSTableBuilder builder(path);
  for (const auto& [key, value] : p.rows) {
    K2_CHECK(builder.Add(key, value).ok());
    p.keys.push_back(key);
  }
  K2_CHECK(builder.Finish().ok());
  p.bytes = ReadFile(path);
  std::memcpy(&p.index_offset, p.bytes.data() + p.bytes.size() - kFooterSize,
              8);
  return p;
}

/// Blocks (by number) holding at least one byte that differs from the
/// pristine file, plus whether anything outside the data blocks differs.
struct Damage {
  std::set<size_t> blocks;
  bool outside_data = false;
};

Damage Diff(const Pristine& p, const std::string& bytes) {
  Damage d;
  if (bytes.size() != p.bytes.size()) d.outside_data = true;
  const size_t n = std::min(bytes.size(), p.bytes.size());
  for (size_t i = 0; i < n; ++i) {
    if (bytes[i] == p.bytes[i]) continue;
    if (i < p.index_offset) {
      d.blocks.insert(i / kBlockBytes);
    } else {
      d.outside_data = true;
    }
  }
  return d;
}

/// Block a key would live in: rows are packed kBlockEntries per block in
/// key order, so the pristine rank of the nearest row at or after the key
/// names it.
size_t BlockOf(const Pristine& p, uint64_t key) {
  const size_t rank = static_cast<size_t>(
      std::lower_bound(p.keys.begin(), p.keys.end(), key) - p.keys.begin());
  return std::min(rank, p.keys.size() - 1) / lsm::kBlockEntries;
}

std::string Mutate(const Pristine& p, std::mt19937_64* rng) {
  std::string bytes = p.bytes;
  switch ((*rng)() % 7) {
    case 0:  // truncate anywhere
      bytes.resize((*rng)() % bytes.size());
      break;
    case 1:  // extend with garbage
      for (uint64_t i = 1 + (*rng)() % 64; i > 0; --i) {
        bytes.push_back(static_cast<char>((*rng)()));
      }
      break;
    case 2:  // flip bits in the footer and metadata
      for (int i = 0; i < 1 + static_cast<int>((*rng)() % 3); ++i) {
        const size_t at = p.index_offset +
                          (*rng)() % (bytes.size() - p.index_offset);
        bytes[at] = static_cast<char>(bytes[at] ^ (1u << ((*rng)() % 8)));
      }
      break;
    case 3:  // forge: damage the index, then re-seal the checksum
             // (footer bytes 16..19), so only Open's structural checks
             // stand guard
    {
      const size_t meta_end = bytes.size() - kFooterSize;
      for (int i = 0; i < 1 + static_cast<int>((*rng)() % 3); ++i) {
        const size_t at =
            p.index_offset + (*rng)() % (meta_end - p.index_offset);
        bytes[at] = static_cast<char>(bytes[at] ^ (1 + (*rng)() % 255));
      }
      const uint32_t crc =
          Crc32c(bytes.data() + p.index_offset, meta_end - p.index_offset);
      std::memcpy(&bytes[bytes.size() - 16], &crc, 4);
      break;
    }
    case 4:  // overwrite a whole key inside the data blocks
    {
      const size_t entry = (*rng)() % (p.index_offset / kEntrySize);
      const uint64_t key = (*rng)();
      std::memcpy(&bytes[entry * kEntrySize], &key, 8);
      break;
    }
    default:  // flip random bytes anywhere
      for (int i = 0; i < 1 + static_cast<int>((*rng)() % 4); ++i) {
        const size_t at = (*rng)() % bytes.size();
        bytes[at] = static_cast<char>(bytes[at] ^ (1 + (*rng)() % 255));
      }
      break;
  }
  return bytes;
}

/// Drives every read entry point over an opened (possibly damaged) table
/// and checks the rows the damage could not reach.
void CheckReads(const Pristine& p, const SSTable& table, const Damage& d,
                std::mt19937_64* rng) {
  // Only data-block damage is attributable; a table whose checksummed
  // metadata changed yet still opened has to be merely survivable.
  const bool exact = !d.outside_data;
  auto intact = [&](uint64_t key) {
    return exact && d.blocks.count(BlockOf(p, key)) == 0;
  };

  // Point reads: a random sorted mix of present and absent keys.
  std::vector<uint64_t> keys;
  for (uint64_t key : p.keys) {
    if ((*rng)() % 4 == 0) keys.push_back(key);
    if ((*rng)() % 16 == 0) keys.push_back(key + 1);  // absent or next row
  }
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<LsmValue> values(keys.size());
  std::vector<uint8_t> found(keys.size(), 0);
  IoStats point_io;
  const size_t hits =
      table.MultiGet(keys, values.data(), found.data(), &point_io);
  ASSERT_LE(hits, keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!intact(keys[i])) continue;
    auto it = p.rows.find(keys[i]);
    ASSERT_EQ(found[i] != 0, it != p.rows.end()) << "key " << keys[i];
    if (it == p.rows.end()) continue;
    EXPECT_EQ(values[i].x, it->second.x);
    EXPECT_EQ(values[i].y, it->second.y);
  }

  // Range reads: every emitted key lies in range, and every pristine row in
  // range from an undamaged block is emitted with its value.
  const Timestamp t = KeyTime(p.keys[(*rng)() % p.keys.size()]);
  const uint64_t lo = MinKeyOf(t);
  const uint64_t hi = MaxKeyOf(t);
  // A damaged block may emit a copy of an intact row's key, so the rows
  // are kept as a multimap and an intact row must be among its key's rows.
  std::multimap<uint64_t, LsmValue> got;
  size_t emitted = 0;
  IoStats io;
  table.Scan(
      lo, hi,
      [&](uint64_t key, const LsmValue& v) {
        EXPECT_GE(key, lo);
        EXPECT_LE(key, hi);
        got.emplace(key, v);
        ++emitted;
      },
      &io);
  ASSERT_LE(emitted, table.num_entries());
  for (auto it = p.rows.lower_bound(lo); it != p.rows.end() && it->first <= hi;
       ++it) {
    if (!intact(it->first)) continue;
    auto [first, last] = got.equal_range(it->first);
    EXPECT_TRUE(std::any_of(first, last, [&](const auto& row) {
      return row.second.x == it->second.x && row.second.y == it->second.y;
    })) << "row " << it->first << " lost";
  }
}

TEST(SSTableFuzzTest, MutatedTablesFailCleanlyOrReadExactly) {
  const std::string dir = ScratchDir("sstable_fuzz");
  const Pristine p = BuildPristine(dir + "/pristine.sst");
  ASSERT_GT(p.index_offset / kBlockBytes, 4u);  // several blocks per tick

  std::mt19937_64 rng(kSeed);
  const auto deadline = std::chrono::steady_clock::now() + kTimeBox;
  int iterations = 0, opened = 0;
  for (; iterations < kMaxIterations &&
         std::chrono::steady_clock::now() < deadline;
       ++iterations) {
    SCOPED_TRACE("iteration " + std::to_string(iterations));
    const std::string bytes = Mutate(p, &rng);
    const std::string path = dir + "/mutant.sst";
    WriteFile(path, bytes);
    auto table = SSTable::Open(path, 1);
    if (!table.ok()) {
      const StatusCode code = table.status().code();
      ASSERT_TRUE(code == StatusCode::kInvalid ||
                  code == StatusCode::kIOError)
          << table.status().ToString();
      continue;
    }
    ++opened;
    CheckReads(p, *table.value(), Diff(p, bytes), &rng);
    if (::testing::Test::HasFatalFailure()) return;
  }
  RecordProperty("iterations", iterations);
  RecordProperty("opened", opened);
  // Enough of the sequence ran to reach both outcomes.
  EXPECT_GT(iterations, 50);
  EXPECT_GT(opened, 0);
  EXPECT_LT(opened, iterations);
}

}  // namespace
}  // namespace k2
