// Shared helpers for the test suite: compact dataset construction, miner
// wrappers that CHECK on status, and canonical convoy comparison.
#ifndef K2_TESTS_TEST_UTIL_H_
#define K2_TESTS_TEST_UTIL_H_

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/convoy.h"
#include "common/types.h"
#include "model/dataset.h"
#include "storage/memory_store.h"
#include "storage/store.h"

namespace k2::testing {

/// Builds a dataset from (t, oid, x, y) tuples.
inline Dataset MakeDataset(
    const std::vector<std::tuple<Timestamp, ObjectId, double, double>>& rows) {
  DatasetBuilder builder;
  for (const auto& [t, oid, x, y] : rows) builder.Add(t, oid, x, y);
  return builder.Build();
}

/// 1-D layout helper: objects move along the x axis only; `tracks[oid]` is
/// the per-tick x position (y = 0). All tracks must have equal length.
/// Position kGone means "absent at this tick".
inline constexpr double kGone = 1e18;
inline Dataset MakeTracks(const std::vector<std::vector<double>>& tracks) {
  DatasetBuilder builder;
  for (ObjectId oid = 0; oid < tracks.size(); ++oid) {
    for (size_t t = 0; t < tracks[oid].size(); ++t) {
      if (tracks[oid][t] == kGone) continue;
      builder.Add(static_cast<Timestamp>(t), oid, tracks[oid][t], 0.0);
    }
  }
  return builder.Build();
}

/// Convenience convoy literal.
inline Convoy C(std::initializer_list<ObjectId> ids, Timestamp s,
                Timestamp e) {
  return Convoy(ObjectSet(std::vector<ObjectId>(ids)), s, e);
}

/// Canonical string form of a convoy list for readable failure messages.
inline std::string Str(const std::vector<Convoy>& convoys) {
  std::vector<Convoy> sorted = convoys;
  SortConvoys(&sorted);
  std::string out;
  for (const Convoy& v : sorted) out += v.DebugString() + "\n";
  return out;
}

#define EXPECT_SAME_CONVOYS(a, b) EXPECT_EQ(::k2::testing::Str(a), ::k2::testing::Str(b))

/// Creates a fresh directory `<parent>/<prefix><tag>_<pid>_<n>` (n counts
/// calls in this process) and removes it again at process exit. The pid
/// and the counter make every name unique: ctest runs each TEST as its own
/// process, so under `ctest -j` tests sharing a tag would otherwise delete
/// each other's stores. Returns "" when the directory cannot be created.
inline std::string UniqueScratchDir(const std::filesystem::path& parent,
                                    const std::string& prefix,
                                    const std::string& tag) {
  struct Registry {
    std::vector<std::filesystem::path> dirs;
    int next = 0;
    ~Registry() {
      std::error_code ec;
      for (const auto& dir : dirs) std::filesystem::remove_all(dir, ec);
    }
  };
  static Registry registry;
  const std::filesystem::path dir =
      parent / (prefix + tag + "_" + std::to_string(::getpid()) + "_" +
                std::to_string(registry.next++));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // a stale dir of a recycled pid
  std::filesystem::create_directories(dir, ec);
  if (ec) return "";
  registry.dirs.push_back(dir);
  return dir.string();
}

/// Fresh, process-unique scratch directory for disk-backed stores.
inline std::string ScratchDir(const std::string& tag) {
  const std::string dir = UniqueScratchDir(
      std::filesystem::temp_directory_path(), "k2hop_test_", tag);
  K2_CHECK(!dir.empty());
  return dir;
}

/// Whole contents of the file at `path`; CHECK-fails when it cannot be read.
inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  K2_CHECK(in.good());
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Replaces the file at `path` with `bytes`; CHECK-fails on error.
inline void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  K2_CHECK(out.good());
}

/// Loads `dataset` into a MemoryStore.
inline std::unique_ptr<MemoryStore> MakeMemStore(const Dataset& dataset) {
  auto store = std::make_unique<MemoryStore>();
  K2_CHECK_OK(store->BulkLoad(dataset));
  return store;
}

}  // namespace k2::testing

#endif  // K2_TESTS_TEST_UTIL_H_
