#include "storage/lsm_store.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <span>

#include "common/check.h"
#include "storage/key.h"

namespace k2 {

using lsm::LsmValue;
using lsm::ManifestState;
using lsm::ManifestTable;
using lsm::SSTable;
using lsm::SSTableBuilder;
using lsm::WalWriter;

namespace {

/// WAL record payload: [u8 type][u32 count][count * (u64 key, f64 x, f64 y)].
constexpr uint8_t kWalRowBatch = 1;
constexpr size_t kWalEntrySize = 24;
constexpr size_t kWalBatchHeader = 5;

void AppendRaw(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

using TableList = std::vector<std::shared_ptr<const SSTable>>;
using MemtableList = std::span<const lsm::Memtable* const>;

// Read path shared by the store and its snapshots. Every key lives in
// exactly one source, and the sources come in key order — `tables` sorted
// by key range, then `mems` oldest first — so each source's rows are
// appended as found and the result is sorted. Table reads charge `stats`.

Status LsmScanTimestamp(const TableList& tables, MemtableList mems,
                        Timestamp t, std::vector<SnapshotPoint>* out,
                        IoStats* stats) {
  out->clear();
  ++stats->snapshot_scans;
  const uint64_t lo = MinKeyOf(t);
  const uint64_t hi = MaxKeyOf(t);
  auto emit = [out](uint64_t key, const LsmValue& value) {
    out->push_back(SnapshotPoint{KeyOid(key), value.x, value.y});
  };
  for (const auto& table : tables) table->Scan(lo, hi, emit, stats);
  for (const lsm::Memtable* mem : mems) mem->Scan(lo, hi, emit);
  stats->scanned_points += out->size();
  return Status::OK();
}

// Point reads of one tick: the sorted ObjectSet becomes sorted keys once,
// and each source looks all of them up in one forward walk. A source that
// does not hold the tick answers in O(1) from its key range.
Status LsmGetPoints(const TableList& tables, MemtableList mems, Timestamp t,
                    const ObjectSet& objects, std::vector<SnapshotPoint>* out,
                    IoStats* stats) {
  out->clear();
  stats->point_queries += objects.size();
  struct Scratch {
    std::vector<uint64_t> keys;
    std::vector<LsmValue> values;
    std::vector<uint8_t> found;
  };
  thread_local Scratch scratch;
  const size_t n = objects.size();
  scratch.keys.clear();
  for (ObjectId oid : objects) scratch.keys.push_back(MakeKey(t, oid));
  scratch.values.resize(n);
  scratch.found.assign(n, 0);
  for (const auto& table : tables) {
    table->MultiGet(scratch.keys, scratch.values.data(), scratch.found.data(),
                    stats);
  }
  for (const lsm::Memtable* mem : mems) {
    mem->MultiGet(scratch.keys, scratch.values.data(), scratch.found.data());
  }
  for (size_t i = 0; i < n; ++i) {
    if (scratch.found[i] == 0) continue;
    out->push_back(SnapshotPoint{KeyOid(scratch.keys[i]), scratch.values[i].x,
                                 scratch.values[i].y});
  }
  stats->point_hits += out->size();
  return Status::OK();
}

/// Read-only view: the parent's immutable SSTable handles, shared, plus a
/// copy of its memtable, charging the snapshot's own io_stats().
class LsmReadSnapshot final : public Store {
 public:
  LsmReadSnapshot(lsm::Memtable memtable, TableList tables,
                  std::vector<Timestamp> timestamps, uint64_t num_points)
      : memtable_(std::move(memtable)),
        tables_(std::move(tables)),
        timestamps_(std::move(timestamps)),
        num_points_(num_points) {}

  std::string name() const override { return "lsmt"; }
  Status BulkLoad(const Dataset&) override {
    return Status::Invalid("read snapshot of lsmt is read-only");
  }
  Status Append(Timestamp, const std::vector<SnapshotPoint>&) override {
    return Status::Invalid("read snapshot of lsmt is read-only");
  }
  Status ScanTimestamp(Timestamp t, std::vector<SnapshotPoint>* out) override {
    const lsm::Memtable* mem = &memtable_;
    return LsmScanTimestamp(tables_, {&mem, 1}, t, out, &io_stats_);
  }
  Status GetPoints(Timestamp t, const ObjectSet& objects,
                   std::vector<SnapshotPoint>* out) override {
    const lsm::Memtable* mem = &memtable_;
    return LsmGetPoints(tables_, {&mem, 1}, t, objects, out, &io_stats_);
  }
  TimeRange time_range() const override {
    if (timestamps_.empty()) return TimeRange{0, -1};
    return TimeRange{timestamps_.front(), timestamps_.back()};
  }
  const std::vector<Timestamp>& timestamps() const override {
    return timestamps_;
  }
  uint64_t num_points() const override { return num_points_; }

 private:
  lsm::Memtable memtable_;
  TableList tables_;  // key order, as in the parent
  std::vector<Timestamp> timestamps_;
  uint64_t num_points_;
};

/// Builds table `seq` at `path` from the rows `feed` adds to the builder in
/// key order, publishes it, and opens it.
template <typename Feed>
Result<std::shared_ptr<const SSTable>> BuildTable(Env* env,
                                                  const std::string& path,
                                                  uint64_t seq, Feed&& feed) {
  {
    SSTableBuilder builder(env, path);
    K2_RETURN_NOT_OK(feed(&builder));
    K2_RETURN_NOT_OK(builder.Finish());
  }
  return SSTable::Open(path, seq);
}

/// The lowest tier whose nominal size, memtable_limit * fanout^tier,
/// holds `entries`.
uint32_t TierHolding(uint64_t entries, uint64_t memtable_limit,
                     uint64_t fanout) {
  uint32_t tier = 0;
  for (uint64_t nominal = std::max<uint64_t>(memtable_limit, 1);
       nominal < entries && tier + 1 < lsm::kMaxTiers; ++tier) {
    nominal = nominal > entries / fanout ? entries : nominal * fanout;
  }
  return tier;
}

bool ByMinKey(const std::shared_ptr<const SSTable>& a,
              const std::shared_ptr<const SSTable>& b) {
  return a->min_key() < b->min_key();
}

std::string KeyString(uint64_t key) {
  return "(t=" + std::to_string(KeyTime(key)) +
         ", oid=" + std::to_string(KeyOid(key)) + ")";
}

std::string TableFileName(uint64_t seq) {
  return "sstable_" + std::to_string(seq) + ".sst";
}

std::string WalFileName(uint64_t seq) {
  return "wal_" + std::to_string(seq) + ".log";
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / recovery
// ---------------------------------------------------------------------------

LsmStore::LsmStore(std::string dir, Options options)
    : dir_(std::move(dir)),
      options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()) {
  // A tier merges once it holds tier_fanout tables. Below 2 the merged
  // table alone refills its new tier (1) or even an empty tier merges (0),
  // so a compaction cascade never ends.
  if (options_.tier_fanout < 2) {
    init_status_ = Status::Invalid(
        "LsmStoreOptions::tier_fanout must be at least 2, got " +
        std::to_string(options_.tier_fanout));
    return;
  }
  init_status_ = Recover();
  if (init_status_.ok() && options_.background_compaction) StartWorker();
}

LsmStore::~LsmStore() {
  bool started;
  {
    MutexLock lock(mu_);
    started = worker_started_;
  }
  if (started) StopWorker();
  // Best-effort close; the WAL's synced prefix is what survives regardless.
  // The worker is joined, but the lock keeps the analyzer's guard on wal_
  // honest (and costs nothing uncontended).
  MutexLock lock(mu_);
  if (wal_ != nullptr) wal_->Close();
}

std::string LsmStore::TableFilePath(uint64_t seq) const {
  return dir_ + "/" + TableFileName(seq);
}

std::string LsmStore::WalFilePath(uint64_t seq) const {
  return dir_ + "/" + WalFileName(seq);
}

Status LsmStore::Recover() {
  // Recovery runs single-threaded in the constructor, before the worker
  // exists; the lock makes the Locked helpers callable and is uncontended.
  MutexLock lock(mu_);
  K2_RETURN_NOT_OK(env_->CreateDirs(dir_));
  memtable_ = std::make_unique<lsm::Memtable>();

  ManifestState manifest;
  auto read = lsm::ReadManifest(env_, dir_);
  if (read.ok()) {
    manifest = read.MoveValue();
  } else if (read.status().code() != StatusCode::kNotFound) {
    return read.status();  // a corrupt MANIFEST is not silently ignorable
  }
  // ReadManifest guarantees every live table and WAL seq is below next_seq.
  next_seq_ = std::max<uint64_t>(manifest.next_seq, 1);

  // 1. Open every table the MANIFEST says is live; they were published
  //    atomically, so a validation failure here is real corruption.
  for (const ManifestTable& t : manifest.tables) {
    if (t.tier >= tiers_.size()) tiers_.resize(t.tier + 1);
    K2_ASSIGN_OR_RETURN(std::shared_ptr<const SSTable> table,
                        SSTable::Open(dir_ + "/" + t.file, t.seq));
    tiers_[t.tier].push_back(std::move(table));
  }
  RebuildReadViewLocked();

  // 2. Every key lives in one source, so the tables must cover disjoint key
  //    ranges. Walked in key order, then the WAL, rows come in key order
  //    and the tick list grows at its back.
  auto note_tick = [&](uint64_t key) {
    const Timestamp t = KeyTime(key);
    if (tick_cache_.empty() || tick_cache_.back() != t) tick_cache_.push_back(t);
  };
  const SSTable* last = nullptr;  // last non-empty table in key order
  for (const auto& table : tables_by_key_) {
    if (table->num_entries() == 0) continue;
    if (last != nullptr && last->max_key() >= table->min_key()) {
      return Status::Invalid(
          "manifest tables overlap: " + last->path() + " ends at key " +
          KeyString(last->max_key()) + ", " + table->path() +
          " starts at key " + KeyString(table->min_key()));
    }
    last = table.get();
    num_points_ += table->num_entries();
    table->Scan(
        0, ~0ULL, [&](uint64_t key, const LsmValue&) { note_tick(key); },
        &io_stats_);
  }

  // 3. Replay the live WAL segments (oldest first) into the active
  //    memtable: the longest valid prefix of each is exactly what was
  //    durable. Logged keys ascend above every table; a key that does not
  //    is a named error, not a row to guess a place for. The segments stay
  //    live until this memtable flushes.
  Status order;
  for (uint64_t wseq : manifest.live_wals) {
    const std::string path = WalFilePath(wseq);
    if (!env_->FileExists(path)) continue;  // flushed + deleted mid-commit
    auto replayed = lsm::ReplayWal(env_, path, [&](const char* payload,
                                                   size_t n) {
      if (!order.ok()) return;
      if (n < kWalBatchHeader || payload[0] != kWalRowBatch) return;
      uint32_t count;
      std::memcpy(&count, payload + 1, 4);
      if (n < kWalBatchHeader + uint64_t{count} * kWalEntrySize) return;
      const char* p = payload + kWalBatchHeader;
      for (uint32_t i = 0; i < count; ++i, p += kWalEntrySize) {
        uint64_t key;
        LsmValue value;
        std::memcpy(&key, p, 8);
        std::memcpy(&value.x, p + 8, 8);
        std::memcpy(&value.y, p + 16, 8);
        if ((last != nullptr && key <= last->max_key()) ||
            !memtable_->Append(key, value)) {
          order = Status::Invalid("wal record out of order in " + path +
                                  ": key " + KeyString(key) +
                                  " is not above the key before it");
          return;
        }
        note_tick(key);
        ++num_points_;
      }
    });
    if (!replayed.ok()) return replayed.status();
    K2_RETURN_NOT_OK(order);
  }
  active_wal_seqs_ = manifest.live_wals;

  // 4. Start a fresh WAL segment for new writes and commit the recovered
  //    shape, so the store is durable-consistent before the first Append.
  K2_RETURN_NOT_OK(OpenActiveWalLocked(false));
  K2_RETURN_NOT_OK(WriteManifestLocked());

  // 5. Remove orphans: tmp files of interrupted builds and tables/WALs that
  //    fell out of the MANIFEST before their unlink landed. Names the
  //    MANIFEST (or the new WAL) references are kept; everything else with
  //    one of our prefixes goes. Best-effort.
  std::set<std::string> keep{std::string(lsm::kManifestName)};
  for (const ManifestTable& t : manifest.tables) keep.insert(t.file);
  for (uint64_t wseq : active_wal_seqs_) keep.insert(WalFileName(wseq));
  auto listing = env_->ListDir(dir_);
  if (listing.ok()) {
    for (const std::string& name : listing.value()) {
      if (keep.count(name) > 0) continue;
      if (StartsWith(name, "sstable_") || StartsWith(name, "wal_") ||
          EndsWith(name, ".tmp")) {
        env_->RemoveFile(dir_ + "/" + name);
      }
    }
  }

  io_stats_.Clear();  // recovery reads are not query IO
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Status LsmStore::WritableLocked() const {
  K2_RETURN_NOT_OK(init_status_);
  return write_error_;
}

ManifestState LsmStore::ManifestSnapshotLocked() const {
  ManifestState state;
  state.next_seq = next_seq_;
  for (const PendingMemtable& p : pending_) {
    for (uint64_t seq : p.wal_seqs) state.live_wals.push_back(seq);
  }
  for (uint64_t seq : active_wal_seqs_) state.live_wals.push_back(seq);
  for (uint32_t tier = 0; tier < tiers_.size(); ++tier) {
    for (const auto& table : tiers_[tier]) {
      state.tables.push_back(ManifestTable{tier, table->seq(),
                                           TableFileName(table->seq()),
                                           table->num_entries()});
    }
  }
  return state;
}

Status LsmStore::WriteManifestLocked() {
  return lsm::WriteManifest(env_, dir_, ManifestSnapshotLocked());
}

Status LsmStore::OpenActiveWalLocked(bool fresh_wal_set) {
  if (fresh_wal_set) active_wal_seqs_.clear();
  const uint64_t seq = next_seq_++;
  auto writer = WalWriter::Create(env_, WalFilePath(seq));
  if (!writer.ok()) {
    write_error_ = writer.status();
    return writer.status();
  }
  wal_ = writer.MoveValue();
  active_wal_seqs_.push_back(seq);
  return Status::OK();
}

Status LsmStore::WalAppendLocked(Timestamp t,
                                 const std::vector<SnapshotPoint>& points,
                                 bool sync) {
  wal_scratch_.clear();
  const uint32_t count = static_cast<uint32_t>(points.size());
  AppendRaw(&wal_scratch_, &kWalRowBatch, 1);
  AppendRaw(&wal_scratch_, &count, 4);
  for (const SnapshotPoint& p : points) {
    const uint64_t key = MakeKey(t, p.oid);
    AppendRaw(&wal_scratch_, &key, 8);
    AppendRaw(&wal_scratch_, &p.x, 8);
    AppendRaw(&wal_scratch_, &p.y, 8);
  }
  Status s = wal_->AddRecord(wal_scratch_.data(), wal_scratch_.size());
  if (s.ok() && sync) s = wal_->Sync();
  // Any WAL failure poisons the segment (it may now end in a torn frame
  // that replay would stop at), so writes stay failed until reopen.
  if (!s.ok()) write_error_ = s;
  return s;
}

Status LsmStore::Append(Timestamp t, const std::vector<SnapshotPoint>& points) {
  K2_RETURN_NOT_OK(init_status_);
  K2_RETURN_NOT_OK(CheckAppend(t, points));
  if (points.empty()) return Status::OK();
  MutexLock lock(mu_);
  K2_RETURN_NOT_OK(WritableLocked());
  // WAL first (synced by default): the tick is durable before the memtable
  // sees it, and an error leaves the store exactly as it was.
  K2_RETURN_NOT_OK(
      WalAppendLocked(t, points, options_.wal_sync_every_append));
  // CheckAppend put the tick past the stored range with ascending oids, so
  // every key lands above the memtable's last one.
  for (const SnapshotPoint& p : points) {
    K2_CHECK(memtable_->Append(MakeKey(t, p.oid), LsmValue{p.x, p.y}));
  }
  tick_cache_.push_back(t);
  num_points_ += points.size();
  return MaybeRotateLocked();
}

Status LsmStore::MaybeRotateLocked() {
  if (memtable_->size() >= options_.memtable_limit) {
    return RotateMemtableLocked();
  }
  if (options_.wal.segment_bytes > 0 && wal_ != nullptr &&
      wal_->bytes_written() >= options_.wal.segment_bytes) {
    return RotateWalSegmentLocked();
  }
  return Status::OK();
}

Status LsmStore::RotateWalSegmentLocked() {
  // Seal the active segment and chain a fresh one onto the same memtable.
  // The sealed file stays in active_wal_seqs_ — its records live only in
  // the memtable — and the whole chain is deleted when that memtable's
  // flush commits, exactly like the single-segment case.
  Status s = wal_->Close();
  if (!s.ok()) {
    write_error_ = s;
    return s;
  }
  K2_RETURN_NOT_OK(OpenActiveWalLocked(/*fresh_wal_set=*/false));
  // Commit the new segment to the MANIFEST before any record can land in
  // it: a crash between open and commit leaves only an empty orphan file,
  // which recovery deletes.
  s = WriteManifestLocked();
  if (!s.ok()) write_error_ = s;
  return s;
}

Status LsmStore::RotateMemtableLocked() {
  if (memtable_->empty()) return Status::OK();
  // Seal the segment feeding this memtable (flush the writer's buffer; the
  // synced prefix is already safe, and the table the flush job publishes
  // supersedes the rest).
  Status s = wal_->Close();
  if (!s.ok()) {
    write_error_ = s;
    return s;
  }
  pending_.push_back(PendingMemtable{
      std::shared_ptr<const lsm::Memtable>(memtable_.release()),
      active_wal_seqs_});
  memtable_ = std::make_unique<lsm::Memtable>();
  RebuildReadViewLocked();
  K2_RETURN_NOT_OK(OpenActiveWalLocked(/*fresh_wal_set=*/true));
  s = WriteManifestLocked();
  if (!s.ok()) {
    write_error_ = s;
    return s;
  }
  if (options_.background_compaction && worker_started_) {
    work_cv_.NotifyOne();
    // Backpressure: let the worker catch up before queueing more.
    while (pending_.size() > options_.max_pending_memtables &&
           write_error_.ok() && !stop_) {
      drain_cv_.Wait(mu_);
    }
    return write_error_;
  }
  return DrainLocked();
}

Status LsmStore::DrainLocked() {
  if (options_.background_compaction && worker_started_) {
    while (!(pending_.empty() && !worker_busy_) && write_error_.ok()) {
      drain_cv_.Wait(mu_);
    }
    return write_error_;
  }
  while (write_error_.ok() && !pending_.empty()) {
    Status s = FlushFrontLocked();
    if (s.ok()) s = CompactLocked();
    if (!s.ok()) write_error_ = s;
  }
  return write_error_;
}

Status LsmStore::Flush() {
  MutexLock lock(mu_);
  K2_RETURN_NOT_OK(WritableLocked());
  K2_RETURN_NOT_OK(RotateMemtableLocked());
  return DrainLocked();
}

Status LsmStore::FlushFrontLocked() {
  if (pending_.empty()) return Status::OK();
  // The job stays in pending_ (readers keep seeing it) until the table is
  // installed; only this thread consumes the queue, so the front is stable
  // across the unlocked section.
  PendingMemtable job = pending_.front();
  const uint64_t table_seq = next_seq_++;
  const std::string path = TableFilePath(table_seq);

  mu_.Unlock();
  auto built = BuildTable(env_, path, table_seq, [&](SSTableBuilder* builder) {
    for (const lsm::Memtable::Row& row : job.mem->rows()) {
      K2_RETURN_NOT_OK(builder->Add(row.key, row.value));
    }
    return Status::OK();
  });
  mu_.Lock();
  if (!built.ok()) return built.status();

  if (tiers_.empty()) tiers_.emplace_back();
  tiers_[0].push_back(built.MoveValue());
  pending_.pop_front();
  RebuildReadViewLocked();
  // Commit: the MANIFEST now references the table and no longer lists the
  // flushed segments. Only after that commit may the WAL files go away.
  K2_RETURN_NOT_OK(WriteManifestLocked());
  for (uint64_t wseq : job.wal_seqs) {
    env_->RemoveFile(WalFilePath(wseq));  // best-effort; replay is idempotent
  }
  return Status::OK();
}

Status LsmStore::CompactLocked() {
  for (size_t tier = 0; tier < tiers_.size(); ++tier) {
    if (tiers_[tier].size() < options_.tier_fanout) continue;

    // Take the inputs; only this thread mutates tiers_, so the set is
    // stable across the unlocked merge, and table handles are immutable,
    // so the merge reads them while foreground readers do too.
    TableList inputs = tiers_[tier];
    const uint64_t out_seq = next_seq_++;
    const std::string out_path = TableFilePath(out_seq);

    mu_.Unlock();
    // The inputs hold disjoint key ranges, so the merge is their
    // concatenation in key order; the builder refuses a key that is not
    // above the one before it.
    std::sort(inputs.begin(), inputs.end(), ByMinKey);
    IoStats merge_io;
    auto merged =
        BuildTable(env_, out_path, out_seq, [&](SSTableBuilder* builder) {
          Status s;
          for (const auto& in : inputs) {
            in->Scan(
                0, ~0ULL,
                [&](uint64_t key, const LsmValue& value) {
                  if (s.ok()) s = builder->Add(key, value);
                },
                &merge_io);
          }
          return s;
        });
    mu_.Lock();
    bg_io_.Accumulate(merge_io);
    if (!merged.ok()) return merged.status();

    TableList graveyard;
    graveyard.swap(tiers_[tier]);
    if (tier + 1 >= tiers_.size()) tiers_.emplace_back();
    tiers_[tier + 1].push_back(merged.MoveValue());
    ++compactions_run_;
    RebuildReadViewLocked();
    K2_RETURN_NOT_OK(WriteManifestLocked());
    // The inputs left the MANIFEST with that commit; their files can go
    // (recovery sweeps any unlink a crash interrupts). A read snapshot still
    // holding a handle keeps reading its mapping.
    for (const auto& old : graveyard) env_->RemoveFile(old->path());
    // A cascade may now be due in tier+1; the loop continues upward.
  }
  return Status::OK();
}

void LsmStore::RebuildReadViewLocked() {
  tables_by_key_.clear();
  for (const auto& tier : tiers_) {
    for (const auto& table : tier) tables_by_key_.push_back(table);
  }
  std::sort(tables_by_key_.begin(), tables_by_key_.end(), ByMinKey);
  mems_by_key_.clear();
  for (const PendingMemtable& p : pending_) mems_by_key_.push_back(p.mem.get());
  mems_by_key_.push_back(memtable_.get());
}

// ---------------------------------------------------------------------------
// Background worker
// ---------------------------------------------------------------------------

void LsmStore::StartWorker() {
  {
    // worker_started_ is read under mu_ by the rotate/drain paths; setting
    // it unlocked in the constructor was benign only because no other
    // thread exists yet — the guard keeps the rule uniform.
    MutexLock lock(mu_);
    worker_started_ = true;
  }
  worker_ = std::thread([this] { WorkerMain(); });
}

void LsmStore::StopWorker() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  drain_cv_.NotifyAll();
  if (worker_.joinable()) worker_.join();
}

void LsmStore::WorkerMain() {
  MutexLock lock(mu_);
  for (;;) {
    while (!stop_ && (pending_.empty() || !write_error_.ok())) {
      work_cv_.Wait(mu_);
    }
    if (stop_) return;  // queued data stays recoverable through the WAL
    worker_busy_ = true;
    Status s = FlushFrontLocked();
    if (s.ok()) s = CompactLocked();
    if (!s.ok()) write_error_ = s;
    worker_busy_ = false;
    drain_cv_.NotifyAll();
  }
}

// ---------------------------------------------------------------------------
// Bulk load / reads / metadata
// ---------------------------------------------------------------------------

Status LsmStore::BulkLoad(const Dataset& dataset) {
  K2_RETURN_NOT_OK(init_status_);
  MutexLock lock(mu_);
  // Let an in-flight background job finish; queued ones go with the old
  // content.
  while (worker_busy_) drain_cv_.Wait(mu_);

  // The records are (t, oid)-sorted and duplicate-free, so they stream
  // straight into one table. It is published before the live state
  // changes: a failure here leaves the old content in place, plus at most
  // an orphan file that recovery sweeps.
  std::shared_ptr<const SSTable> table;
  if (!dataset.empty()) {
    const uint64_t seq = next_seq_++;
    K2_ASSIGN_OR_RETURN(
        table, BuildTable(env_, TableFilePath(seq), seq,
                          [&](SSTableBuilder* builder) {
                            for (const PointRecord& rec : dataset.records()) {
                              K2_RETURN_NOT_OK(builder->Add(
                                  MakeKey(rec.t, rec.oid),
                                  LsmValue{rec.x, rec.y}));
                            }
                            return Status::OK();
                          }));
  }

  // Swap the content in — including a fresh start from a sticky write
  // error — and commit it with one MANIFEST write. The old files go only
  // once the MANIFEST no longer names them.
  std::vector<std::string> doomed;
  for (const PendingMemtable& p : pending_) {
    for (uint64_t seq : p.wal_seqs) doomed.push_back(WalFilePath(seq));
  }
  for (uint64_t seq : active_wal_seqs_) doomed.push_back(WalFilePath(seq));
  for (const auto& tier : tiers_) {
    for (const auto& old : tier) doomed.push_back(old->path());
  }
  if (wal_ != nullptr) wal_->Close();
  wal_.reset();
  pending_.clear();
  tiers_.clear();
  if (table != nullptr) {
    tiers_.resize(TierHolding(table->num_entries(), options_.memtable_limit,
                              options_.tier_fanout) +
                  1);
    tiers_.back().push_back(std::move(table));
  }
  memtable_ = std::make_unique<lsm::Memtable>();
  RebuildReadViewLocked();
  tick_cache_ = dataset.timestamps();
  num_points_ = dataset.num_points();
  write_error_ = Status::OK();
  K2_RETURN_NOT_OK(OpenActiveWalLocked(/*fresh_wal_set=*/true));
  Status s = WriteManifestLocked();
  if (!s.ok()) {
    write_error_ = s;
    return s;
  }
  for (const std::string& path : doomed) env_->RemoveFile(path);
  // A load is a fresh start for the IO accounting too: the first mining
  // run's pruning_ratio() (Table 5) counts only its own reads.
  io_stats_.Clear();
  bg_io_.Clear();
  return Status::OK();
}

Status LsmStore::ScanTimestamp(Timestamp t, std::vector<SnapshotPoint>* out) {
  MutexLock lock(mu_);
  K2_RETURN_NOT_OK(init_status_);
  return LsmScanTimestamp(tables_by_key_, mems_by_key_, t, out, &io_stats_);
}

Status LsmStore::GetPoints(Timestamp t, const ObjectSet& objects,
                           std::vector<SnapshotPoint>* out) {
  MutexLock lock(mu_);
  K2_RETURN_NOT_OK(init_status_);
  return LsmGetPoints(tables_by_key_, mems_by_key_, t, objects, out,
                      &io_stats_);
}

Result<std::unique_ptr<Store>> LsmStore::CreateReadSnapshot() {
  MutexLock lock(mu_);
  K2_RETURN_NOT_OK(init_status_);
  // Queued flushes must land first so the frozen run plus the table files
  // cover everything; a store with a sticky write error cannot guarantee
  // that, so snapshotting it fails with the same error.
  K2_RETURN_NOT_OK(DrainLocked());
  auto snapshot = std::make_unique<LsmReadSnapshot>(
      *memtable_, tables_by_key_, tick_cache_, num_points_);
  return std::unique_ptr<Store>(std::move(snapshot));
}

// Invariant (analysis off): tick_cache_ is written only by the external
// writer thread under mu_ (never by the background worker), and the Store
// contract forbids const metadata reads concurrent with a writer — so these
// unlocked reads cannot race. See docs/ARCHITECTURE.md, "Lock discipline".
TimeRange LsmStore::time_range() const K2_NO_THREAD_SAFETY_ANALYSIS {
  if (tick_cache_.empty()) return TimeRange{0, -1};
  return TimeRange{tick_cache_.front(), tick_cache_.back()};
}

// Invariant (analysis off): same unlocked const-read contract as
// time_range() above.
const std::vector<Timestamp>& LsmStore::timestamps() const
    K2_NO_THREAD_SAFETY_ANALYSIS {
  return tick_cache_;
}

Status LsmStore::write_error() const {
  MutexLock lock(mu_);
  return write_error_;
}

size_t LsmStore::num_sstables() const {
  MutexLock lock(mu_);
  size_t n = 0;
  for (const auto& tier : tiers_) n += tier.size();
  return n;
}

size_t LsmStore::num_tiers() const {
  MutexLock lock(mu_);
  return tiers_.size();
}

size_t LsmStore::active_wal_segments() const {
  MutexLock lock(mu_);
  return active_wal_seqs_.size();
}

size_t LsmStore::memtable_entries() const {
  MutexLock lock(mu_);
  return memtable_->size();
}

uint64_t LsmStore::compactions_run() const {
  MutexLock lock(mu_);
  return compactions_run_;
}

IoStats LsmStore::background_io_stats() const {
  MutexLock lock(mu_);
  return bg_io_;
}

}  // namespace k2
