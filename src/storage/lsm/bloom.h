// Bloom filter over packed (t, oid) keys; one filter per SSTable lets point
// reads (under LsmStoreOptions::use_bloom) skip keys a table cannot
// contain (counted in IoStats as bloom_negative).
#ifndef K2_STORAGE_LSM_BLOOM_H_
#define K2_STORAGE_LSM_BLOOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace k2::lsm {

class BloomFilter {
 public:
  /// Block geometry of the cache-line-blocked layout: all probes of one key
  /// stay inside a single 512-bit (64-byte) block.
  static constexpr size_t kBlockBits = 512;
  static constexpr size_t kBlockWords = kBlockBits / 64;

  /// Flag OR-ed into the serialized num_hashes word (see num_hashes_for_disk)
  /// marking the cache-line-blocked probe layout. Filters persisted before
  /// the blocked layout existed carry a plain hash count and keep the flat
  /// probe order on load.
  static constexpr uint32_t kBlockedLayoutFlag = 0x80000000u;

  BloomFilter() = default;

  /// Sizes the filter for `expected_keys` at `bits_per_key` (default 10
  /// bits/key ~ 1% false positives). Always produces the blocked layout.
  explicit BloomFilter(size_t expected_keys, int bits_per_key = 10);

  void Add(uint64_t key);
  bool MayContain(uint64_t key) const;

  /// Serialized form: the raw word array (for embedding in SSTable files).
  const std::vector<uint64_t>& words() const { return words_; }
  int num_hashes() const { return num_hashes_; }
  /// num_hashes with the layout flag, as written to disk.
  uint32_t num_hashes_for_disk() const {
    return static_cast<uint32_t>(num_hashes_) |
           (blocked_ ? kBlockedLayoutFlag : 0);
  }

  /// Rebuilds from a serialized word array; `num_hashes_word` is the raw
  /// on-disk value, which carries the layout flag for blocked filters.
  static BloomFilter FromWords(std::vector<uint64_t> words,
                               uint32_t num_hashes_word);

  size_t num_bits() const { return words_.size() * 64; }

 private:
  static uint64_t Mix(uint64_t key);

  std::vector<uint64_t> words_;
  int num_hashes_ = 1;
  bool blocked_ = false;
};

}  // namespace k2::lsm

#endif  // K2_STORAGE_LSM_BLOOM_H_
