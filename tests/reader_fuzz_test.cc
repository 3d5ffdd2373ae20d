// Seeded mutation fuzzer for the dataset and proximity-log readers: ReadCsv,
// ReadBinary, ReadProximityCsv and ReadProximityBinary. A valid file of each
// format is written once; every iteration flips bits of it, truncates or
// extends it, splices hostile tokens into a CSV field or a forged record
// count or record word into a binary file, and decodes the result.
//
// Each input must give either a named error (kInvalid or kIOError with a
// message) or a value that round-trips: written back in the same format
// and read again, it decodes to exactly itself. Decoded coordinates are
// finite, no decode returns more rows than its input can hold, and a
// binary input is accepted only when it holds exactly the records its
// header counts. The pristine files decode to exactly what was written.
//
// Under ASan+UBSan (ctest label `fuzz`) a read outside a buffer or an
// oversized allocation fails the run. The mutation sequences are fixed by
// the seed; each loop is time-boxed, so a slow (sanitized) build covers a
// prefix of the same sequence.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "io/csv.h"
#include "io/proximity_io.h"
#include "model/dataset.h"
#include "model/proximity.h"
#include "tests/test_util.h"

namespace k2 {
namespace {

using ::k2::testing::ReadFile;
using ::k2::testing::ScratchDir;
using ::k2::testing::WriteFile;

constexpr uint64_t kSeed = 0xc5f0c0de;
constexpr auto kTimeBox = std::chrono::milliseconds(1000);
constexpr int kMaxIterations = 20000;
constexpr size_t kBinaryHeader = 16;  // magic + record count

/// Tokens a hostile CSV field may carry: non-numbers, non-finite and
/// out-of-range numbers, signs without digits, embedded separators.
const std::vector<std::string>& HostileTokens() {
  static const std::vector<std::string> tokens = {
      "", "nan", "-nan", "inf", "-inf", "infinity", "1e400", "-1e400",
      "4294967296", "-1", "2147483648", "-2147483649", "+", "-", "+-1",
      "0x10", "1e", ".", "1,2", "\t", "\r", "t", "oid", "1e-400",
      "99999999999999999999"};
  return tokens;
}

void FlipBits(std::string* bytes, std::mt19937_64* rng) {
  if (bytes->empty()) return;
  for (int i = 0; i < 1 + static_cast<int>((*rng)() % 3); ++i) {
    const size_t at = (*rng)() % bytes->size();
    (*bytes)[at] = static_cast<char>((*bytes)[at] ^ (1u << ((*rng)() % 8)));
  }
}

void AppendGarbage(std::string* bytes, std::mt19937_64* rng, bool text) {
  for (uint64_t i = 1 + (*rng)() % 64; i > 0; --i) {
    const char c = text ? "0123456789,.-+e\n tnai"[(*rng)() % 21]
                        : static_cast<char>((*rng)());
    bytes->push_back(c);
  }
}

/// Replaces one comma-separated field of one line with a hostile token,
/// or (forged header) one field of the first line with a column alias.
void SpliceToken(std::string* csv, std::mt19937_64* rng,
                 const std::vector<std::string>& header_names) {
  std::vector<size_t> starts{0};  // field starts
  for (size_t i = 0; i < csv->size(); ++i) {
    if ((*csv)[i] == ',' || (*csv)[i] == '\n') starts.push_back(i + 1);
  }
  const size_t begin = starts[(*rng)() % starts.size()];
  size_t end = begin;
  while (end < csv->size() && (*csv)[end] != ',' && (*csv)[end] != '\n') {
    ++end;
  }
  const bool in_header = begin < csv->find('\n');
  const std::string& token =
      in_header && (*rng)() % 2 == 0
          ? header_names[(*rng)() % header_names.size()]
          : HostileTokens()[(*rng)() % HostileTokens().size()];
  csv->replace(begin, end - begin, token);
}

/// Overwrites the binary header's record count with a forged one: around
/// the true count, just past what the file holds, or anything at all.
void ForgeCount(std::string* bytes, std::mt19937_64* rng, size_t record) {
  if (bytes->size() < kBinaryHeader) return;
  uint64_t count;
  std::memcpy(&count, bytes->data() + 8, 8);
  const uint64_t fits = (bytes->size() - kBinaryHeader) / record;
  switch ((*rng)() % 4) {
    case 0: count = fits + 1 + (*rng)() % 4; break;
    case 1: count = (*rng)() % (fits + 1); break;
    case 2: count = ~uint64_t{0} - (*rng)() % 4; break;
    default: count = (*rng)(); break;
  }
  std::memcpy(bytes->data() + 8, &count, 8);
}

/// Overwrites one aligned 8-byte word of the binary payload with a forged
/// bit pattern: a non-finite double, an extreme one, or random bits.
void ForgeWord(std::string* bytes, std::mt19937_64* rng) {
  if (bytes->size() < kBinaryHeader + 8) return;
  const size_t words = (bytes->size() - kBinaryHeader) / 8;
  const size_t at = kBinaryHeader + 8 * ((*rng)() % words);
  static const double kSpecial[] = {
      std::nan(""), HUGE_VAL, -HUGE_VAL, 1.7976931348623157e308,
      -1.7976931348623157e308, 4.9e-324, -0.0};
  uint64_t word = (*rng)();
  if ((*rng)() % 2 == 0) {
    std::memcpy(&word, &kSpecial[(*rng)() % std::size(kSpecial)], 8);
  }
  std::memcpy(bytes->data() + at, &word, 8);
}

std::string Mutate(const std::string& pristine, std::mt19937_64* rng,
                   bool text, size_t binary_record,
                   const std::vector<std::string>& header_names) {
  std::string bytes = pristine;
  switch ((*rng)() % 5) {
    case 0:
      FlipBits(&bytes, rng);
      break;
    case 1:
      bytes.resize((*rng)() % (bytes.size() + 1));
      break;
    case 2:
      AppendGarbage(&bytes, rng, text);
      break;
    case 3:
      if (text) {
        SpliceToken(&bytes, rng, header_names);
      } else if ((*rng)() % 2 == 0) {
        ForgeCount(&bytes, rng, binary_record);
      } else {
        ForgeWord(&bytes, rng);
      }
      break;
    default:  // two mutations stacked
      FlipBits(&bytes, rng);
      if (text) {
        SpliceToken(&bytes, rng, header_names);
      } else {
        bytes.resize(bytes.size() - (*rng)() % (bytes.size() / 4 + 1));
      }
  }
  return bytes;
}

bool NamedError(const Status& status) {
  return (status.code() == StatusCode::kInvalid ||
          status.code() == StatusCode::kIOError) &&
         !status.message().empty();
}

/// Whether a binary input holds exactly the records its header counts.
bool ExactBinarySize(const std::string& bytes, size_t record) {
  if (bytes.size() < kBinaryHeader) return false;
  uint64_t count;
  std::memcpy(&count, bytes.data() + 8, 8);
  const size_t payload = bytes.size() - kBinaryHeader;
  return payload % record == 0 && count == payload / record;
}

size_t Lines(const std::string& bytes) {
  size_t n = 1;
  for (char c : bytes) n += c == '\n' ? 1 : 0;
  return n;
}

// ---------------------------------------------------------------------------
// Datasets

Dataset PristineDataset() {
  std::mt19937_64 rng(kSeed);
  std::uniform_real_distribution<double> coord(-5000.0, 5000.0);
  DatasetBuilder builder;
  for (Timestamp t = -3; t < 12; ++t) {
    for (ObjectId oid : {0u, 7u, 1000u, 4294967295u}) {
      if (rng() % 4 == 0) continue;
      builder.Add(t, oid, coord(rng), coord(rng));
    }
  }
  builder.Add(2147483647, 1, 0.1, -0.0);
  builder.Add(-2147483647 - 1, 2, 1e-300, 1e300);
  return builder.Build();
}

bool SameRecords(const Dataset& a, const Dataset& b) {
  return a.records() == b.records();
}

/// Runs `read` on `bytes` and checks the contract; returns whether the
/// input was accepted.
bool CheckDataset(const std::string& path, const std::string& bytes,
                  const std::function<Result<Dataset>(const std::string&)>&
                      read,
                  const std::function<Status(const Dataset&,
                                             const std::string&)>& write,
                  size_t max_rows) {
  WriteFile(path, bytes);
  Result<Dataset> got = read(path);
  if (!got.ok()) {
    EXPECT_TRUE(NamedError(got.status())) << got.status().ToString();
    return false;
  }
  const Dataset& data = got.value();
  EXPECT_LE(data.num_points(), max_rows);
  for (const PointRecord& r : data.records()) {
    EXPECT_TRUE(std::isfinite(r.x) && std::isfinite(r.y))
        << "t=" << r.t << " oid=" << r.oid;
  }
  const std::string again = path + ".again";
  EXPECT_TRUE(write(data, again).ok());
  Result<Dataset> reread = read(again);
  EXPECT_TRUE(reread.ok()) << reread.status().ToString();
  if (reread.ok()) {
    EXPECT_TRUE(SameRecords(reread.value(), data));
  }
  return true;
}

void FuzzDatasetReader(
    const std::string& tag, bool text,
    const std::function<Result<Dataset>(const std::string&)>& read,
    const std::function<Status(const Dataset&, const std::string&)>& write) {
  const std::string dir = ScratchDir(tag);
  const std::string path = dir + "/input";
  const Dataset pristine_data = PristineDataset();
  ASSERT_TRUE(write(pristine_data, path).ok());
  const std::string pristine = ReadFile(path);
  {
    Result<Dataset> decoded = read(path);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_TRUE(SameRecords(decoded.value(), pristine_data))
        << "the pristine file does not decode to what was written";
  }
  const std::vector<std::string> header_names = {
      "t", "timestamp", "oid", "id", "x", "lon", "y", "lat"};

  std::mt19937_64 rng(kSeed);
  const auto deadline = std::chrono::steady_clock::now() + kTimeBox;
  int iterations = 0, accepted = 0;
  for (; iterations < kMaxIterations &&
         std::chrono::steady_clock::now() < deadline;
       ++iterations) {
    SCOPED_TRACE("iteration " + std::to_string(iterations));
    const std::string bytes = Mutate(pristine, &rng, text,
                                     sizeof(PointRecord), header_names);
    const size_t max_rows =
        text ? Lines(bytes)
             : (bytes.size() < kBinaryHeader
                    ? 0
                    : (bytes.size() - kBinaryHeader) / sizeof(PointRecord));
    if (CheckDataset(path, bytes, read, write, max_rows)) {
      ++accepted;
      EXPECT_TRUE(text || ExactBinarySize(bytes, sizeof(PointRecord)));
    }
    if (::testing::Test::HasFailure()) break;
  }
  ::testing::Test::RecordProperty("iterations", iterations);
  ::testing::Test::RecordProperty("accepted", accepted);
  EXPECT_GT(iterations, 50);
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, iterations);
}

TEST(ReaderFuzzTest, CsvDatasetsFailCleanlyOrRoundTrip) {
  FuzzDatasetReader("fuzz_csv", /*text=*/true, ReadCsv, WriteCsv);
}

TEST(ReaderFuzzTest, BinaryDatasetsFailCleanlyOrRoundTrip) {
  FuzzDatasetReader("fuzz_binary", /*text=*/false, ReadBinary, WriteBinary);
}

// ---------------------------------------------------------------------------
// Proximity logs

ProximityLog PristineLog() {
  std::mt19937_64 rng(kSeed + 1);
  std::vector<PairRecord> records;
  for (Timestamp t = -2; t < 10; ++t) {
    for (int i = 0; i < 6; ++i) {
      const auto a = static_cast<ObjectId>(rng() % 9);
      const auto b = static_cast<ObjectId>(rng() % 9);
      if (a != b) records.push_back(PairRecord{t, a, b});
    }
  }
  records.push_back(PairRecord{2147483647, 0, 4294967295u});
  records.push_back(PairRecord{-2147483647 - 1, 3, 1});
  return ProximityLog::FromRecords(std::move(records));
}

void FuzzProximityReader(
    const std::string& tag, bool text,
    const std::function<Result<ProximityLog>(const std::string&)>& read,
    const std::function<Status(const ProximityLog&, const std::string&)>&
        write) {
  const std::string dir = ScratchDir(tag);
  const std::string path = dir + "/input";
  const ProximityLog pristine_log = PristineLog();
  ASSERT_TRUE(write(pristine_log, path).ok());
  const std::string pristine = ReadFile(path);
  {
    Result<ProximityLog> decoded = read(path);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded.value().ToRecords(), pristine_log.ToRecords());
  }
  const std::vector<std::string> header_names = {"t", "timestamp", "oid_a",
                                                 "a", "oid_b", "b"};

  std::mt19937_64 rng(kSeed + 1);
  const auto deadline = std::chrono::steady_clock::now() + kTimeBox;
  int iterations = 0, accepted = 0;
  for (; iterations < kMaxIterations &&
         std::chrono::steady_clock::now() < deadline;
       ++iterations) {
    SCOPED_TRACE("iteration " + std::to_string(iterations));
    const std::string bytes = Mutate(pristine, &rng, text,
                                     sizeof(PairRecord), header_names);
    WriteFile(path, bytes);
    Result<ProximityLog> got = read(path);
    if (!got.ok()) {
      EXPECT_TRUE(NamedError(got.status())) << got.status().ToString();
    } else {
      ++accepted;
      const std::vector<PairRecord> records = got.value().ToRecords();
      const size_t max_rows =
          text ? Lines(bytes)
               : (bytes.size() - kBinaryHeader) / sizeof(PairRecord);
      EXPECT_LE(records.size(), max_rows);
      EXPECT_TRUE(text || ExactBinarySize(bytes, sizeof(PairRecord)));
      const std::string again = path + ".again";
      EXPECT_TRUE(write(got.value(), again).ok());
      Result<ProximityLog> reread = read(again);
      ASSERT_TRUE(reread.ok()) << reread.status().ToString();
      EXPECT_EQ(reread.value().ToRecords(), records);
    }
    if (::testing::Test::HasFailure()) break;
  }
  ::testing::Test::RecordProperty("iterations", iterations);
  ::testing::Test::RecordProperty("accepted", accepted);
  EXPECT_GT(iterations, 50);
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, iterations);
}

TEST(ReaderFuzzTest, ProximityCsvLogsFailCleanlyOrRoundTrip) {
  FuzzProximityReader("fuzz_proximity_csv", /*text=*/true, ReadProximityCsv,
                      WriteProximityCsv);
}

TEST(ReaderFuzzTest, ProximityBinaryLogsFailCleanlyOrRoundTrip) {
  FuzzProximityReader("fuzz_proximity_binary", /*text=*/false,
                      ReadProximityBinary, WriteProximityBinary);
}

}  // namespace
}  // namespace k2
