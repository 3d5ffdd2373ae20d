// Immutable sorted-string table: 4 KiB data blocks of packed (key, x, y)
// entries and a sparse block index kept resident, data blocks read in place
// from a read-only mmap of the file. File layout (format v3):
//
//   [block 0][block 1]...[block B-1]
//   [index: B * {uint64 first_key, uint64 last_key, uint64 offset, u32 count}]
//   [footer: uint64 index_offset, uint64 num_entries,
//            uint32 meta_crc32c (over the index), uint32 version,
//            uint64 magic]
//
// Publication is atomic: the builder writes to `<path>.tmp` through an Env,
// fsyncs, closes, and renames onto the final path (rename + parent-dir
// fsync), so a reader can never observe a partially written table under the
// final name. Open() refuses truncated or corrupt files with named errors
// instead of parsing garbage — recovery after a crash depends on it. Data
// blocks carry no checksum: damage inside one can change the rows read from
// that block, but the validated index keeps every read inside the mapping.
#ifndef K2_STORAGE_LSM_SSTABLE_H_
#define K2_STORAGE_LSM_SSTABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"

namespace k2 {
struct IoStats;
}

namespace k2::lsm {

/// The row payload stored under a packed (t, oid) key.
struct LsmValue {
  double x = 0.0;
  double y = 0.0;
};

inline constexpr uint64_t kSstMagic = 0x6b32686f70737374ULL;  // "k2hopsst"
inline constexpr uint32_t kSstFormatVersion = 3;
inline constexpr size_t kEntrySize = 24;  // key + x + y
inline constexpr size_t kBlockEntries = 170;  // 24 B/entry -> ~4 KiB blocks
// first_key + last_key + offset + count.
inline constexpr size_t kIndexEntrySize = 28;
// index_offset + num_entries + meta_crc + version + magic.
inline constexpr size_t kFooterSize = 8 + 8 + 4 + 4 + 8;

/// Writes one SSTable; Add() must be called in strictly increasing key order.
/// Nothing appears under the final path until Finish() has fsynced and
/// renamed the temporary file; a crash mid-build leaves at most a `.tmp`
/// orphan that recovery deletes.
class SSTableBuilder {
 public:
  SSTableBuilder(Env* env, std::string path);
  /// Convenience: builds through Env::Default().
  explicit SSTableBuilder(std::string path);
  ~SSTableBuilder();

  Status Add(uint64_t key, const LsmValue& value);
  /// Flushes everything, fsyncs, and atomically publishes the table.
  Status Finish();

  uint64_t num_entries() const { return num_entries_; }

 private:
  Status FlushBlock();

  struct IndexEntry {
    uint64_t first_key;
    uint64_t last_key;
    uint64_t offset;
    uint32_t count;
  };

  Env* env_;
  std::string path_;      // final path, target of the publishing rename
  std::string tmp_path_;  // path_ + ".tmp", where all writing happens
  std::unique_ptr<WritableFile> file_;
  std::string scratch_;  // per-block serialization buffer
  std::vector<std::pair<uint64_t, LsmValue>> block_;
  std::vector<IndexEntry> index_;
  uint64_t offset_ = 0;
  uint64_t num_entries_ = 0;
  uint64_t last_key_ = 0;
  bool has_last_key_ = false;
  Status deferred_error_;
};

/// Read-side handle over the read-only mmap of one immutable table file.
/// The index is resident and data blocks are read in place, so a handle
/// holds no mutable read state: every read takes the IoStats it charges as
/// an argument, and one handle may be shared (as shared_ptr<const SSTable>)
/// by any number of concurrent readers.
///
/// IO model charged per call: `sstables_touched` once per call that reaches
/// the table, `pages_read` once per distinct block the call reads, `seeks`
/// once per run of adjacent blocks, `bytes_read` 24 B per row handed out.
/// Nothing is cached, so `pages_cached` stays 0.
class SSTable {
 public:
  /// Maps `path` and validates footer, checksummed index and index order.
  static Result<std::shared_ptr<const SSTable>> Open(const std::string& path,
                                                     uint64_t seq);
  ~SSTable();

  SSTable(const SSTable&) = delete;
  SSTable& operator=(const SSTable&) = delete;

  /// Looks up ascending, duplicate-free `keys` in one forward walk over the
  /// blocks: one index binary search for the first key, then block by
  /// block. A key found here sets values[i] and found[i] = 1; the entries
  /// of other keys are left as they were. Returns the number of keys this
  /// call found.
  size_t MultiGet(std::span<const uint64_t> keys, LsmValue* values,
                  uint8_t* found, IoStats* stats) const;

  /// Visits entries with lo <= key <= hi in key order.
  void Scan(uint64_t lo, uint64_t hi,
            const std::function<void(uint64_t, const LsmValue&)>& fn,
            IoStats* stats) const;

  uint64_t min_key() const { return min_key_; }
  uint64_t max_key() const { return max_key_; }
  uint64_t num_entries() const { return num_entries_; }
  /// Monotone creation sequence number: larger = newer data.
  uint64_t seq() const { return seq_; }
  const std::string& path() const { return path_; }
  bool Overlaps(uint64_t lo, uint64_t hi) const {
    return num_entries_ > 0 && lo <= max_key_ && hi >= min_key_;
  }

 private:
  SSTable() = default;

  struct IndexEntry {
    uint64_t first_key;
    uint64_t last_key;
    uint64_t offset;
    uint32_t count;
  };

  /// First block whose last_key >= key (index_.size() when none).
  size_t FirstBlockNotBefore(uint64_t key) const;

  std::string path_;
  const char* map_ = nullptr;  // read-only mmap of the whole file
  size_t map_size_ = 0;
  std::vector<IndexEntry> index_;
  uint64_t num_entries_ = 0;
  uint64_t min_key_ = 0;
  uint64_t max_key_ = 0;
  uint64_t seq_ = 0;
};

}  // namespace k2::lsm

#endif  // K2_STORAGE_LSM_SSTABLE_H_
