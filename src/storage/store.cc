#include "storage/store.h"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "storage/bptree_store.h"
#include "storage/file_store.h"
#include "storage/lsm_store.h"
#include "storage/memory_store.h"

namespace k2 {

std::string IoStats::DebugString() const {
  std::ostringstream os;
  os << "IoStats{scans=" << snapshot_scans
     << ", scanned_points=" << scanned_points
     << ", point_queries=" << point_queries << ", point_hits=" << point_hits
     << ", bytes_read=" << bytes_read << ", seeks=" << seeks
     << ", pages_read=" << pages_read << ", pages_cached=" << pages_cached
     << ", bloom_negative=" << bloom_negative
     << ", sstables_touched=" << sstables_touched << "}";
  return os.str();
}

IoStats IoStats::Delta(const IoStats& after, const IoStats& before) {
  IoStats d;
  d.snapshot_scans = after.snapshot_scans - before.snapshot_scans;
  d.scanned_points = after.scanned_points - before.scanned_points;
  d.point_queries = after.point_queries - before.point_queries;
  d.point_hits = after.point_hits - before.point_hits;
  d.bytes_read = after.bytes_read - before.bytes_read;
  d.seeks = after.seeks - before.seeks;
  d.pages_read = after.pages_read - before.pages_read;
  d.pages_cached = after.pages_cached - before.pages_cached;
  d.bloom_negative = after.bloom_negative - before.bloom_negative;
  d.sstables_touched = after.sstables_touched - before.sstables_touched;
  return d;
}

void IoStats::Accumulate(const IoStats& other) {
  snapshot_scans += other.snapshot_scans;
  scanned_points += other.scanned_points;
  point_queries += other.point_queries;
  point_hits += other.point_hits;
  bytes_read += other.bytes_read;
  seeks += other.seeks;
  pages_read += other.pages_read;
  pages_cached += other.pages_cached;
  bloom_negative += other.bloom_negative;
  sstables_touched += other.sstables_touched;
}

double PruningRatio(const IoStats& io, uint64_t total_points) {
  if (total_points == 0) return 0.0;
  const double processed = static_cast<double>(io.points_read());
  return processed >= static_cast<double>(total_points)
             ? 0.0
             : 1.0 - processed / static_cast<double>(total_points);
}

size_t GatherPoints(std::span<const PointRecord> rows,
                    const ObjectSet& objects,
                    std::vector<SnapshotPoint>* out) {
  const size_t before = out->size();
  auto it = rows.begin();
  for (ObjectId oid : objects) {
    it = std::lower_bound(
        it, rows.end(), oid,
        [](const PointRecord& r, ObjectId o) { return r.oid < o; });
    if (it == rows.end()) break;
    if (it->oid == oid) out->push_back(SnapshotPoint{oid, it->x, it->y});
  }
  return out->size() - before;
}

Status Store::Append(Timestamp t, const std::vector<SnapshotPoint>& points) {
  (void)t;
  (void)points;
  return Status::NotImplemented("Append is not supported by " + name());
}

namespace {

/// CreateReadSnapshot fallback: a read-only delegate that serializes every
/// access through the parent's fallback mutex. Correct for any engine;
/// concurrent readers make no progress against each other, which is exactly
/// why the built-in engines override the hook with native handles. IO is
/// counted by the parent (inside the locked delegate call); this wrapper's
/// own io_stats() stay zero so callers never double-count.
class SerializedSnapshotStore final : public Store {
 public:
  SerializedSnapshotStore(Store* parent, Mutex* mu)
      : parent_(parent), mu_(mu) {}

  std::string name() const override { return parent_->name(); }

  Status BulkLoad(const Dataset&) override { return ReadOnly(); }
  Status Append(Timestamp, const std::vector<SnapshotPoint>&) override {
    return ReadOnly();
  }

  Status ScanTimestamp(Timestamp t, std::vector<SnapshotPoint>* out) override {
    MutexLock lock(*mu_);
    return parent_->ScanTimestamp(t, out);
  }

  Status GetPoints(Timestamp t, const ObjectSet& objects,
                   std::vector<SnapshotPoint>* out) override {
    MutexLock lock(*mu_);
    return parent_->GetPoints(t, objects, out);
  }

  // Metadata accessors are const on the parent and no writer may be active
  // while snapshots exist (the snapshot contract), so no lock is needed.
  TimeRange time_range() const override { return parent_->time_range(); }
  const std::vector<Timestamp>& timestamps() const override {
    return parent_->timestamps();
  }
  uint64_t num_points() const override { return parent_->num_points(); }

 private:
  Status ReadOnly() const {
    return Status::Invalid("read snapshot of " + parent_->name() +
                           " is read-only");
  }

  Store* parent_;
  Mutex* mu_;
};

}  // namespace

Result<std::unique_ptr<Store>> Store::CreateReadSnapshot() {
  return std::unique_ptr<Store>(
      new SerializedSnapshotStore(this, &fallback_snapshot_mu_));
}

Status Store::CheckAppend(Timestamp t,
                          const std::vector<SnapshotPoint>& points) const {
  if (num_points() > 0 && t <= time_range().end) {
    return Status::Invalid("Append tick " + std::to_string(t) +
                           " is not past the stored range end " +
                           std::to_string(time_range().end));
  }
  for (size_t i = 1; i < points.size(); ++i) {
    if (points[i].oid <= points[i - 1].oid) {
      return Status::Invalid(
          "Append points must be sorted by oid and duplicate-free");
    }
  }
  return Status::OK();
}

const char* StoreKindName(StoreKind kind) {
  switch (kind) {
    case StoreKind::kMemory:
      return "memory";
    case StoreKind::kFile:
      return "file";
    case StoreKind::kBPlusTree:
      return "rdbms";
    case StoreKind::kLsm:
      return "lsmt";
  }
  return "unknown";
}

Result<std::unique_ptr<Store>> CreateStore(StoreKind kind,
                                           const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec && kind != StoreKind::kMemory) {
    return Status::IOError("cannot create directory " + dir + ": " +
                           ec.message());
  }
  switch (kind) {
    case StoreKind::kMemory:
      return std::unique_ptr<Store>(new MemoryStore());
    case StoreKind::kFile:
      return std::unique_ptr<Store>(new FileStore(dir + "/data.bin"));
    case StoreKind::kBPlusTree:
      return std::unique_ptr<Store>(new BPlusTreeStore(dir + "/tree.db"));
    case StoreKind::kLsm:
      return std::unique_ptr<Store>(new LsmStore(dir + "/lsm"));
  }
  return Status::Invalid("unknown store kind");
}

}  // namespace k2
