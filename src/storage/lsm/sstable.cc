#include "storage/lsm/sstable.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/crc32c.h"
#include "storage/store.h"

namespace k2::lsm {

namespace {

void AppendRaw(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

// In-place entry reads. The mapping holds bytes, not C++ objects, so fields
// are loaded with memcpy (one plain load each once compiled).
uint64_t LoadKey(const char* entry) {
  uint64_t key;
  std::memcpy(&key, entry, 8);
  return key;
}

LsmValue LoadValue(const char* entry) {
  LsmValue value;
  std::memcpy(&value.x, entry + 8, 8);
  std::memcpy(&value.y, entry + 16, 8);
  return value;
}

// Index of the first of the entries [lo, hi) at `data` whose key >= key.
uint32_t LowerBound(const char* data, uint32_t lo, uint32_t hi, uint64_t key) {
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (LoadKey(data + size_t{mid} * kEntrySize) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

// ---------------------------------------------------------------------------
// SSTableBuilder
// ---------------------------------------------------------------------------

SSTableBuilder::SSTableBuilder(Env* env, std::string path)
    : env_(env), path_(std::move(path)), tmp_path_(path_ + ".tmp") {
  auto file = env_->NewWritableFile(tmp_path_);
  if (!file.ok()) {
    deferred_error_ = file.status();
  } else {
    file_ = file.MoveValue();
  }
}

SSTableBuilder::SSTableBuilder(std::string path)
    : SSTableBuilder(Env::Default(), std::move(path)) {}

SSTableBuilder::~SSTableBuilder() {
  // Abandoned build (error or never Finished): drop the temporary file so
  // nothing half-written survives under any name. Best-effort.
  if (file_ != nullptr) {
    file_->Close();
    env_->RemoveFile(tmp_path_);
  }
}

void SSTableBuilder::Reserve(size_t expected_keys) {
  bloom_reserve_ = expected_keys;
  all_entries_.reserve(expected_keys);
}

Status SSTableBuilder::Add(uint64_t key, const LsmValue& value) {
  K2_RETURN_NOT_OK(deferred_error_);
  if (has_last_key_ && key <= last_key_) {
    return Status::Invalid("SSTable keys must be strictly increasing");
  }
  last_key_ = key;
  has_last_key_ = true;
  block_.emplace_back(key, value);
  all_entries_.emplace_back(key, value);
  ++num_entries_;
  if (block_.size() >= kBlockEntries) return FlushBlock();
  return Status::OK();
}

Status SSTableBuilder::FlushBlock() {
  if (block_.empty()) return Status::OK();
  IndexEntry entry;
  entry.first_key = block_.front().first;
  entry.last_key = block_.back().first;
  entry.offset = offset_;
  entry.count = static_cast<uint32_t>(block_.size());
  scratch_.clear();
  for (const auto& [key, value] : block_) {
    AppendRaw(&scratch_, &key, 8);
    AppendRaw(&scratch_, &value.x, 8);
    AppendRaw(&scratch_, &value.y, 8);
  }
  Status s = file_->Append(scratch_.data(), scratch_.size());
  if (!s.ok()) {
    deferred_error_ = s;
    return s;
  }
  offset_ += block_.size() * kEntrySize;
  index_.push_back(entry);
  block_.clear();
  return Status::OK();
}

Status SSTableBuilder::Finish() {
  K2_RETURN_NOT_OK(deferred_error_);
  K2_RETURN_NOT_OK(FlushBlock());

  // Metadata region (index + bloom), checksummed as one unit so a torn
  // write anywhere in it is detected by Open().
  const uint64_t index_offset = offset_;
  std::string meta;
  for (const IndexEntry& e : index_) {
    AppendRaw(&meta, &e.first_key, 8);
    AppendRaw(&meta, &e.last_key, 8);
    AppendRaw(&meta, &e.offset, 8);
    AppendRaw(&meta, &e.count, 4);
  }
  const uint64_t bloom_offset = index_offset + index_.size() * kIndexEntrySize;

  BloomFilter bloom(std::max<size_t>(bloom_reserve_, all_entries_.size()));
  for (const auto& [key, value] : all_entries_) bloom.Add(key);
  const uint32_t num_hashes = bloom.num_hashes_for_disk();
  const uint32_t num_words = static_cast<uint32_t>(bloom.words().size());
  AppendRaw(&meta, &num_hashes, 4);
  AppendRaw(&meta, &num_words, 4);
  AppendRaw(&meta, bloom.words().data(), num_words * 8);

  const uint32_t meta_crc = Crc32c(meta.data(), meta.size());
  AppendRaw(&meta, &index_offset, 8);
  AppendRaw(&meta, &bloom_offset, 8);
  AppendRaw(&meta, &num_entries_, 8);
  AppendRaw(&meta, &meta_crc, 4);
  AppendRaw(&meta, &kSstFormatVersion, 4);
  AppendRaw(&meta, &kSstMagic, 8);

  Status s = file_->Append(meta.data(), meta.size());
  if (s.ok()) s = file_->Sync();
  if (s.ok()) s = file_->Close();
  if (!s.ok()) {
    deferred_error_ = s;
    return s;  // dtor removes the tmp file
  }
  file_ = nullptr;
  // The commit point: until this rename lands, the table does not exist.
  s = env_->RenameFile(tmp_path_, path_);
  if (!s.ok()) {
    deferred_error_ = s;
    env_->RemoveFile(tmp_path_);
  }
  return s;
}

// ---------------------------------------------------------------------------
// SSTable (reader)
// ---------------------------------------------------------------------------

SSTable::~SSTable() {
  if (map_ != nullptr) munmap(const_cast<char*>(map_), map_size_);
}

Result<std::shared_ptr<const SSTable>> SSTable::Open(const std::string& path,
                                                     uint64_t seq,
                                                     uint32_t tier) {
  // k2-lint: allow(lsm-io-through-env): read path — Env only shims
  // write-path IO for fault injection; reads go straight to the mmap.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("cannot stat " + path + ": " + std::strerror(err));
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < kFooterSize) {
    ::close(fd);
    return Status::Invalid("truncated SSTable (no footer) in " + path);
  }
  // Tables are immutable once built: every read is served in place from
  // this read-only mapping, which outlives the descriptor.
  void* map = mmap(nullptr, static_cast<size_t>(file_size), PROT_READ,
                   MAP_PRIVATE, fd, 0);
  const int map_errno = errno;
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::IOError("cannot mmap " + path + ": " +
                           std::strerror(map_errno));
  }
  std::shared_ptr<SSTable> table(new SSTable());
  table->map_ = static_cast<const char*>(map);
  table->map_size_ = static_cast<size_t>(file_size);
  table->path_ = path;
  table->seq_ = seq;
  table->tier_ = tier;

  const char* footer = table->map_ + file_size - kFooterSize;
  uint64_t index_offset, bloom_offset, num_entries, magic;
  uint32_t meta_crc, version;
  std::memcpy(&index_offset, footer, 8);
  std::memcpy(&bloom_offset, footer + 8, 8);
  std::memcpy(&num_entries, footer + 16, 8);
  std::memcpy(&meta_crc, footer + 24, 4);
  std::memcpy(&version, footer + 28, 4);
  std::memcpy(&magic, footer + 32, 8);
  if (magic != kSstMagic) {
    return Status::Invalid("bad SSTable magic in " + path);
  }
  if (version != kSstFormatVersion) {
    return Status::Invalid("unsupported SSTable version " +
                           std::to_string(version) + " in " + path);
  }
  const uint64_t meta_end = file_size - kFooterSize;
  if (index_offset > bloom_offset || bloom_offset > meta_end ||
      (bloom_offset - index_offset) % kIndexEntrySize != 0 ||
      meta_end - bloom_offset < 8) {
    return Status::Invalid("SSTable footer offsets out of range in " + path);
  }

  // Verify the metadata checksum before trusting a single field of it.
  const char* p = table->map_ + index_offset;
  if (Crc32c(p, meta_end - index_offset) != meta_crc) {
    return Status::Invalid("SSTable meta checksum mismatch in " + path);
  }

  // Reads walk the index forward and binary-search inside blocks in place,
  // so the index must describe contiguous, non-empty, strictly ordered
  // blocks that tile the data region exactly.
  table->num_entries_ = num_entries;
  const size_t num_blocks = (bloom_offset - index_offset) / kIndexEntrySize;
  table->index_.resize(num_blocks);
  uint64_t data_end = 0;
  for (size_t b = 0; b < num_blocks; ++b, p += kIndexEntrySize) {
    IndexEntry& e = table->index_[b];
    std::memcpy(&e.first_key, p, 8);
    std::memcpy(&e.last_key, p + 8, 8);
    std::memcpy(&e.offset, p + 16, 8);
    std::memcpy(&e.count, p + 24, 4);
    if (e.offset != data_end || e.count == 0 ||
        uint64_t{e.count} * kEntrySize > index_offset - data_end) {
      return Status::Invalid("SSTable block index out of range in " + path);
    }
    data_end += uint64_t{e.count} * kEntrySize;
    if (e.first_key > e.last_key ||
        (b > 0 && table->index_[b - 1].last_key >= e.first_key)) {
      return Status::Invalid("SSTable block index out of order in " + path);
    }
  }
  if (data_end != index_offset || data_end / kEntrySize != num_entries) {
    return Status::Invalid("SSTable entry count mismatch in " + path);
  }

  uint32_t num_hashes, num_words;
  std::memcpy(&num_hashes, p, 4);
  std::memcpy(&num_words, p + 4, 4);
  p += 8;
  if (meta_end - bloom_offset != 8 + uint64_t{num_words} * 8) {
    return Status::Invalid("SSTable bloom size mismatch in " + path);
  }
  std::vector<uint64_t> words(num_words);
  if (num_words > 0) std::memcpy(words.data(), p, size_t{num_words} * 8);
  table->bloom_ = BloomFilter::FromWords(std::move(words), num_hashes);

  if (!table->index_.empty()) {
    table->min_key_ = table->index_.front().first_key;
    table->max_key_ = table->index_.back().last_key;
  }
  return std::shared_ptr<const SSTable>(std::move(table));
}

size_t SSTable::FirstBlockNotBefore(uint64_t key) const {
  return static_cast<size_t>(
      std::partition_point(index_.begin(), index_.end(),
                           [key](const IndexEntry& e) {
                             return e.last_key < key;
                           }) -
      index_.begin());
}

size_t SSTable::MultiGet(std::span<const uint64_t> keys, LsmValue* values,
                         uint8_t* found, bool probe_bloom,
                         IoStats* stats) const {
  size_t i = static_cast<size_t>(
      std::lower_bound(keys.begin(), keys.end(), min_key_) - keys.begin());
  if (num_entries_ == 0 || i == keys.size() || keys[i] > max_key_) return 0;
  ++stats->sstables_touched;
  ChargeTier(&stats->tier_sstables_touched);
  // Every key up to max_key_ has a block with last_key >= key (the last
  // block ends at max_key_), so the walk never runs off the index.
  size_t b = FirstBlockNotBefore(keys[i]);
  size_t block_read = index_.size();  // block `data` points at, none yet
  const char* data = nullptr;
  uint32_t pos = 0;  // entries of block_read before pos hold smaller keys
  size_t hits = 0;
  for (; i < keys.size() && keys[i] <= max_key_; ++i) {
    if (found[i] != 0) continue;
    const uint64_t key = keys[i];
    while (index_[b].last_key < key) ++b;
    if (key < index_[b].first_key) continue;  // between two blocks
    if (probe_bloom && !bloom_.MayContain(key)) {
      ++stats->bloom_negative;
      ChargeTier(&stats->tier_bloom_skipped);
      continue;
    }
    if (b != block_read) {
      if (block_read == index_.size() || b != block_read + 1) ++stats->seeks;
      ++stats->pages_read;
      block_read = b;
      data = map_ + index_[b].offset;
      pos = 0;
    }
    // Keys ascend, so each search resumes where the previous one ended.
    const uint32_t count = index_[b].count;
    pos = LowerBound(data, pos, count, key);
    const char* entry = data + size_t{pos} * kEntrySize;
    if (pos != count && LoadKey(entry) == key) {
      values[i] = LoadValue(entry);
      found[i] = 1;
      ++hits;
    }
  }
  stats->bytes_read += hits * kEntrySize;
  return hits;
}

void SSTable::Scan(uint64_t lo, uint64_t hi,
                   const std::function<void(uint64_t, const LsmValue&)>& fn,
                   IoStats* stats) const {
  if (!Overlaps(lo, hi)) return;
  ++stats->sstables_touched;
  ChargeTier(&stats->tier_sstables_touched);
  uint64_t rows = 0;
  size_t b = FirstBlockNotBefore(lo);
  // Consecutive blocks: one seek for the whole run.
  if (b < index_.size() && index_[b].first_key <= hi) ++stats->seeks;
  for (; b < index_.size() && index_[b].first_key <= hi; ++b) {
    ++stats->pages_read;
    const char* entry = map_ + index_[b].offset;
    for (uint32_t n = 0; n < index_[b].count; ++n, entry += kEntrySize) {
      const uint64_t key = LoadKey(entry);
      if (key < lo) continue;
      if (key > hi) break;
      fn(key, LoadValue(entry));
      ++rows;
    }
  }
  stats->bytes_read += rows * kEntrySize;
}

}  // namespace k2::lsm
