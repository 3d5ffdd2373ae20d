// LSM memtable: the rows written since the last flush, as one sorted run.
// Every writer appends in key order — Store::Append takes only ticks past
// the stored range with ascending oids, and WAL replay sees the rows in the
// order they were logged — so the memtable is a vector that refuses a key
// not above its last one. Nothing is overwritten, and a flush streams the
// rows into an SSTableBuilder as they are. A lookup probes first the row a
// key would hold if its tick's oids were consecutive from the memtable's
// first row (same tick) or up to its last row (the newest tick); a miss, or
// a tick in between, falls back to a binary search over the rest.
#ifndef K2_STORAGE_LSM_MEMTABLE_H_
#define K2_STORAGE_LSM_MEMTABLE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/probe_search.h"
#include "storage/key.h"
#include "storage/lsm/sstable.h"

namespace k2::lsm {

class Memtable {
 public:
  struct Row {
    uint64_t key;
    LsmValue value;
  };

  /// Appends one row. Returns false, leaving the run unchanged, when `key`
  /// is not above the last key.
  bool Append(uint64_t key, const LsmValue& value) {
    if (!rows_.empty() && key <= rows_.back().key) return false;
    rows_.push_back(Row{key, value});
    return true;
  }

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  /// Every row, in key order.
  const std::vector<Row>& rows() const { return rows_; }

  /// Looks up ascending `keys` like SSTable::MultiGet: a key found here
  /// sets values[i] and found[i] = 1. Each search resumes where the
  /// previous one ended.
  void MultiGet(std::span<const uint64_t> keys, LsmValue* values,
                uint8_t* found) const {
    if (rows_.empty()) return;
    const size_t n = rows_.size();
    const uint64_t first_key = rows_.front().key;
    const uint64_t last_key = rows_.back().key;
    size_t pos = 0;
    for (size_t i = 0; i < keys.size() && pos != n; ++i) {
      const uint64_t key = keys[i];
      pos = ProbedLowerBound(pos, n, DenseKeySlot(first_key, last_key, n, key),
                             key, [this](size_t r) { return rows_[r].key; });
      if (pos != n && rows_[pos].key == key) {
        values[i] = rows_[pos].value;
        found[i] = 1;
      }
    }
  }

  /// Visits rows with lo <= key <= hi in key order.
  template <typename Fn>
  void Scan(uint64_t lo, uint64_t hi, Fn&& fn) const {
    for (auto it = std::lower_bound(rows_.begin(), rows_.end(), lo, KeyLess);
         it != rows_.end() && it->key <= hi; ++it) {
      fn(it->key, it->value);
    }
  }

 private:
  static bool KeyLess(const Row& row, uint64_t key) { return row.key < key; }

  std::vector<Row> rows_;
};

}  // namespace k2::lsm

#endif  // K2_STORAGE_LSM_MEMTABLE_H_
