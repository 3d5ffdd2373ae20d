#include "storage/file_store.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

namespace k2 {

static_assert(sizeof(PointRecord) == 24,
              "PointRecord must be 24 bytes for the fixed-width row format");

namespace {

// Read path shared by the store and its snapshots. Each caller owns its
// FILE* (file position), scratch buffer, and IoStats, so handles never
// contend; the extent directory is identical across them.

Status ReadRowsAt(std::FILE* file, const std::string& path,
                  uint64_t row_offset, uint64_t count,
                  std::vector<PointRecord>* scratch, IoStats* stats) {
  scratch->resize(count);
  if (count == 0) return Status::OK();
  if (std::fseek(file, static_cast<long>(row_offset * sizeof(PointRecord)),
                 SEEK_SET) != 0) {
    return Status::IOError("seek failed in " + path);
  }
  ++stats->seeks;
  if (std::fread(scratch->data(), sizeof(PointRecord), count, file) != count) {
    return Status::IOError("short read from " + path);
  }
  stats->bytes_read += count * sizeof(PointRecord);
  return Status::OK();
}

Status ScanFlatFile(std::FILE* file, const std::string& path,
                    const std::vector<Timestamp>& timestamps,
                    const std::vector<FileStore::Extent>& extents, Timestamp t,
                    std::vector<SnapshotPoint>* out,
                    std::vector<PointRecord>* scratch, IoStats* stats) {
  out->clear();
  if (file == nullptr) return Status::Invalid("FileStore not loaded");
  auto it = std::lower_bound(timestamps.begin(), timestamps.end(), t);
  ++stats->snapshot_scans;
  if (it == timestamps.end() || *it != t) return Status::OK();
  const FileStore::Extent& ext = extents[it - timestamps.begin()];
  K2_RETURN_NOT_OK(
      ReadRowsAt(file, path, ext.row_offset, ext.count, scratch, stats));
  out->reserve(ext.count);
  for (const PointRecord& rec : *scratch) {
    out->push_back(SnapshotPoint{rec.oid, rec.x, rec.y});
  }
  stats->scanned_points += out->size();
  return Status::OK();
}

Status GetFlatFilePoints(std::FILE* file, const std::string& path,
                         const std::vector<Timestamp>& timestamps,
                         const std::vector<FileStore::Extent>& extents,
                         Timestamp t, const ObjectSet& objects,
                         std::vector<SnapshotPoint>* out,
                         std::vector<PointRecord>* scratch, IoStats* stats) {
  out->clear();
  if (file == nullptr) return Status::Invalid("FileStore not loaded");
  stats->point_queries += objects.size();
  auto it = std::lower_bound(timestamps.begin(), timestamps.end(), t);
  if (it == timestamps.end() || *it != t) return Status::OK();
  // No secondary index: a point read pays for the whole timestamp extent.
  const FileStore::Extent& ext = extents[it - timestamps.begin()];
  K2_RETURN_NOT_OK(
      ReadRowsAt(file, path, ext.row_offset, ext.count, scratch, stats));
  stats->point_hits += GatherPoints(*scratch, objects, out);
  return Status::OK();
}

/// Read-only view with a private FILE*, scratch, and extent-directory copy;
/// nothing is shared with the parent once constructed.
class FileReadSnapshot final : public Store {
 public:
  FileReadSnapshot(std::FILE* file, std::string path,
                   std::vector<Timestamp> timestamps,
                   std::vector<FileStore::Extent> extents, TimeRange range,
                   uint64_t num_points)
      : file_(file),
        path_(std::move(path)),
        timestamps_(std::move(timestamps)),
        extents_(std::move(extents)),
        time_range_(range),
        num_points_(num_points) {}

  ~FileReadSnapshot() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  std::string name() const override { return "file"; }
  Status BulkLoad(const Dataset&) override {
    return Status::Invalid("read snapshot of file is read-only");
  }
  Status Append(Timestamp, const std::vector<SnapshotPoint>&) override {
    return Status::Invalid("read snapshot of file is read-only");
  }
  Status ScanTimestamp(Timestamp t, std::vector<SnapshotPoint>* out) override {
    return ScanFlatFile(file_, path_, timestamps_, extents_, t, out, &scratch_,
                        &io_stats_);
  }
  Status GetPoints(Timestamp t, const ObjectSet& objects,
                   std::vector<SnapshotPoint>* out) override {
    return GetFlatFilePoints(file_, path_, timestamps_, extents_, t, objects,
                             out, &scratch_, &io_stats_);
  }
  TimeRange time_range() const override { return time_range_; }
  const std::vector<Timestamp>& timestamps() const override {
    return timestamps_;
  }
  uint64_t num_points() const override { return num_points_; }

 private:
  std::FILE* file_;
  std::string path_;
  std::vector<Timestamp> timestamps_;
  std::vector<FileStore::Extent> extents_;
  std::vector<PointRecord> scratch_;
  TimeRange time_range_;
  uint64_t num_points_;
};

}  // namespace

FileStore::FileStore(std::string path) : path_(std::move(path)) {}

FileStore::~FileStore() {
  if (file_ != nullptr) std::fclose(file_);
  if (append_file_ != nullptr) std::fclose(append_file_);
}

Status FileStore::BulkLoad(const Dataset& dataset) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (append_file_ != nullptr) {
    std::fclose(append_file_);
    append_file_ = nullptr;
  }
  std::FILE* out = std::fopen(path_.c_str(), "wb");
  if (out == nullptr) {
    return Status::IOError("cannot create " + path_ + ": " +
                           std::strerror(errno));
  }
  const auto& records = dataset.records();
  if (!records.empty() &&
      std::fwrite(records.data(), sizeof(PointRecord), records.size(), out) !=
          records.size()) {
    std::fclose(out);
    return Status::IOError("short write to " + path_);
  }
  std::fclose(out);

  file_ = std::fopen(path_.c_str(), "rb");
  if (file_ == nullptr) {
    return Status::IOError("cannot reopen " + path_ + ": " +
                           std::strerror(errno));
  }

  timestamps_.clear();
  extents_.clear();
  for (size_t i = 0; i < records.size(); ++i) {
    if (i == 0 || records[i].t != records[i - 1].t) {
      timestamps_.push_back(records[i].t);
      extents_.push_back(Extent{i, 0});
    }
    ++extents_.back().count;
  }
  num_points_ = records.size();
  time_range_ = dataset.time_range();
  io_stats_.Clear();
  return Status::OK();
}

Status FileStore::Append(Timestamp t,
                         const std::vector<SnapshotPoint>& points) {
  K2_RETURN_NOT_OK(CheckAppend(t, points));
  if (points.empty()) return Status::OK();
  // The write handle persists across ticks (one open, not one per append).
  // Its first open truncates ("wb") so a stale file surviving at path_ from
  // an earlier run cannot shift the extent directory off its physical
  // offsets; reopens after a rollback append ("ab"). The separate write
  // handle is safe with the buffered read handle because every read seeks
  // first (ReadRows).
  if (append_file_ == nullptr) {
    append_file_ = std::fopen(path_.c_str(), num_points_ == 0 ? "wb" : "ab");
    if (append_file_ == nullptr) {
      return Status::IOError("cannot append to " + path_ + ": " +
                             std::strerror(errno));
    }
  }
  std::vector<PointRecord> rows;
  rows.reserve(points.size());
  for (const SnapshotPoint& p : points) {
    rows.push_back(PointRecord{t, p.oid, p.x, p.y});
  }
  const bool ok =
      std::fwrite(rows.data(), sizeof(PointRecord), rows.size(),
                  append_file_) == rows.size() &&
      std::fflush(append_file_) == 0;
  if (!ok) {
    // Roll the file back to the last consistent tick boundary; otherwise
    // the orphaned rows would shift every later extent off its physical
    // offset and reads would return misaligned records.
    std::fclose(append_file_);
    append_file_ = nullptr;
    std::error_code ec;
    std::filesystem::resize_file(path_, num_points_ * sizeof(PointRecord), ec);
    return Status::IOError("short append to " + path_);
  }
  if (file_ == nullptr) {
    file_ = std::fopen(path_.c_str(), "rb");
    if (file_ == nullptr) {
      std::fclose(append_file_);
      append_file_ = nullptr;
      std::error_code ec;
      std::filesystem::resize_file(path_, num_points_ * sizeof(PointRecord),
                                   ec);
      return Status::IOError("cannot open " + path_ + " for reading: " +
                             std::strerror(errno));
    }
  }
  timestamps_.push_back(t);
  extents_.push_back(Extent{num_points_, rows.size()});
  if (num_points_ == 0) time_range_.start = t;
  time_range_.end = t;
  num_points_ += rows.size();
  return Status::OK();
}

Status FileStore::ScanTimestamp(Timestamp t, std::vector<SnapshotPoint>* out) {
  return ScanFlatFile(file_, path_, timestamps_, extents_, t, out, &scratch_,
                      &io_stats_);
}

Status FileStore::GetPoints(Timestamp t, const ObjectSet& objects,
                            std::vector<SnapshotPoint>* out) {
  return GetFlatFilePoints(file_, path_, timestamps_, extents_, t, objects,
                           out, &scratch_, &io_stats_);
}

Result<std::unique_ptr<Store>> FileStore::CreateReadSnapshot() {
  // Mirror the parent's loaded state exactly: an unloaded parent fails its
  // reads, so the snapshot does too (file == nullptr); a loaded-but-empty
  // parent answers reads with empty results, so the snapshot needs a real
  // handle on the (empty) file.
  std::FILE* file = nullptr;
  if (file_ != nullptr) {
    file = std::fopen(path_.c_str(), "rb");
    if (file == nullptr) {
      return Status::IOError("cannot open " + path_ +
                             " for snapshot reads: " + std::strerror(errno));
    }
  }
  return std::unique_ptr<Store>(new FileReadSnapshot(
      file, path_, timestamps_, extents_, time_range_, num_points_));
}

uint64_t FileStore::file_size_bytes() const {
  return num_points_ * sizeof(PointRecord);
}

}  // namespace k2
