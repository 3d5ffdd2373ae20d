// Persistent-storage abstraction of paper Sec. 5. k/2-hop touches data in
// exactly two ways: (1) full snapshot scans at benchmark points and (2)
// random point reads `(t, oid)` for candidate objects inside hop-windows.
// Every engine implements both and maintains IO statistics so the benches
// can attribute performance to access-path behaviour.
#ifndef K2_STORAGE_STORE_H_
#define K2_STORAGE_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/object_set.h"
#include "common/status.h"
#include "common/types.h"
#include "model/dataset.h"

namespace k2 {

/// Counters accumulated by a store across queries; reset with Clear().
///
/// The first four fields are the paper's Table-5 accounting and mean the
/// same on every engine. The rest model the access path per engine. The
/// LSM engine reads its tables in place from an mmap, so for it:
/// `bytes_read` is 24 B per row handed out (the MemoryStore convention),
/// `pages_read` counts the distinct blocks each table read touches,
/// `pages_cached` is always 0 (there is no block cache), `seeks` counts
/// runs of adjacent blocks, and `sstables_touched` counts one per table a
/// read walks, not one per key. SSTables carry no bloom filter, so
/// `bloom_negative` is always 0 on every engine; it stays until a change to
/// the repository benchmark, which still reports it, drops it.
struct IoStats {
  uint64_t snapshot_scans = 0;   ///< ScanTimestamp calls.
  uint64_t scanned_points = 0;   ///< Rows returned by snapshot scans.
  uint64_t point_queries = 0;    ///< (t, oid) lookups issued.
  uint64_t point_hits = 0;       ///< Rows found by point lookups.
  uint64_t bytes_read = 0;       ///< Bytes fetched (LSM: 24 B per row out).
  uint64_t seeks = 0;            ///< Random repositionings of the medium.
  uint64_t pages_read = 0;       ///< Buffer-pool misses; LSM: blocks read.
  uint64_t pages_cached = 0;     ///< Buffer-pool hits (page stores only).
  uint64_t bloom_negative = 0;   ///< Always 0: no engine has a bloom.
  uint64_t sstables_touched = 0; ///< LSM table walks (one per table read).

  /// Total rows materialized for the caller (the paper's "points processed").
  uint64_t points_read() const { return scanned_points + point_hits; }

  void Clear() { *this = IoStats(); }
  std::string DebugString() const;

  /// Component-wise difference (after - before), for measuring the IO cost
  /// of one mining run.
  static IoStats Delta(const IoStats& after, const IoStats& before);

  /// Component-wise sum, for folding per-phase deltas into a total (the
  /// online miner attributes ingest and mining IO separately this way).
  void Accumulate(const IoStats& other);
};

/// Fraction of `total_points` never materialized by `io` — the paper's
/// Table-5 pruning %. Shared by every miner's stats type so batch, online,
/// and partitioned pruning numbers stay defined identically.
double PruningRatio(const IoStats& io, uint64_t total_points);

/// Appends to `*out`, in oid order, the rows of one tick (`rows`, sorted
/// by oid) whose oid is in `objects`, and returns how many it appended.
/// Each oid is a TickLowerBound from the previous one's position: one probe
/// of the row the oid holds if the tick is dense, so a dense tick costs
/// O(|objects|) loads. A tick with holes pays that probe and then a binary
/// search, O(|objects| log |rows|), never a walk over the whole tick.
/// The in-memory point-read path of the memory, file and B+-tree engines;
/// each charges its own IoStats.
size_t GatherPoints(std::span<const PointRecord> rows,
                    const ObjectSet& objects,
                    std::vector<SnapshotPoint>* out);

/// Abstract trajectory store keyed by the composite clustered key (t, oid).
///
/// Thread-safety contract: stores are single-writer, and reads are NOT
/// internally synchronized — each concurrent reader (a worker of the
/// sharded mining driver) takes its own `CreateReadSnapshot()` handle. In
/// return, no const accessor (`time_range`, `timestamps`, `num_points`)
/// mutates internal state, so const snapshots of the metadata may be taken
/// without a lock as long as no writer is active. Writers (`BulkLoad`,
/// `Append`) must have exclusive access — "single-writer" means one
/// *external* writer thread; the contract says nothing about what the
/// engine does internally.
///
/// Engines MAY run internal background threads (the LSM store's
/// flush/compaction worker) as long as that is invisible under this
/// contract: every externally observable operation, including the const
/// accessors, must be correctly synchronized against the engine's own
/// threads by the engine itself (the LSM store fences all shared state
/// with one internal mutex; the TSan CI job enforces this). Destruction
/// and `BulkLoad` must quiesce internal workers before returning.
///
/// The full mutex/capability inventory — what each lock guards, the
/// acquisition order, and the invariants the clang thread-safety analyzer
/// cannot see (this contract's unlocked const-read path among them) — is
/// tabulated in docs/ARCHITECTURE.md, section "Lock discipline".
///
/// For lock-free concurrent reads, `CreateReadSnapshot` hands out
/// independent read-only handles (one per reader thread) instead of sharing
/// the store under a mutex — the access path the mining driver uses to
/// keep shards from serializing on one store. Snapshot creation drains any
/// internal background work first, so a snapshot is a stable point-in-time
/// view.
class Store {
 public:
  virtual ~Store() = default;

  /// Engine name used in reports ("memory", "file", "rdbms", "lsmt").
  virtual std::string name() const = 0;

  /// Replaces the store content with `dataset` (records already in
  /// (t, oid) order). Called once before mining. Resets io_stats() on
  /// completion, so load-time flush/compaction IO never pollutes the first
  /// mining run's counters.
  virtual Status BulkLoad(const Dataset& dataset) = 0;

  /// Appends one complete tick of data: all points of tick `t`, which must
  /// be strictly greater than every tick already stored (movement data
  /// arrives in time order). `points` must be sorted by oid and
  /// duplicate-free; an empty `points` is a no-op. Unlike BulkLoad, Append
  /// does NOT reset io_stats(): ingestion cost is part of the streaming
  /// workload and stays observable.
  virtual Status Append(Timestamp t, const std::vector<SnapshotPoint>& points);

  /// Fetches all points at tick `t` into `*out` (cleared first), in oid
  /// order. A tick without data yields an empty result and OK status.
  virtual Status ScanTimestamp(Timestamp t,
                               std::vector<SnapshotPoint>* out) = 0;

  /// Fetches the points of the given objects at tick `t` into `*out`
  /// (cleared first), in oid order; objects absent at `t` are skipped.
  virtual Status GetPoints(Timestamp t, const ObjectSet& objects,
                           std::vector<SnapshotPoint>* out) = 0;

  /// Inclusive tick range present in the store.
  virtual TimeRange time_range() const = 0;

  /// Distinct ticks that carry data, ascending.
  virtual const std::vector<Timestamp>& timestamps() const = 0;

  /// Total number of stored rows.
  virtual uint64_t num_points() const = 0;

  /// Creates an independent read-only view of the store's current content
  /// for one concurrent reader thread (the partitioned miner opens one per
  /// shard slot). Contract:
  ///
  ///  * the snapshot borrows the parent: it must not outlive the parent
  ///    store, and the parent must not be mutated (BulkLoad/Append)
  ///    while snapshots are alive;
  ///  * one snapshot serves one thread at a time; distinct snapshots may
  ///    read concurrently with each other without any external lock;
  ///  * writes through a snapshot fail with kInvalid;
  ///  * IO is accounted once: engines with a native snapshot (all four
  ///    built-ins) count reads in the snapshot's own io_stats(); the
  ///    base-class fallback delegates under an internal parent-wide mutex
  ///    and counts in the parent's io_stats(). Callers fold parent delta
  ///    plus every snapshot's stats to get the total.
  ///
  /// The base implementation is the serialized fallback — correct for any
  /// engine, concurrent for none. Engines override it with handles that
  /// own their read path (file descriptors, caches, scratch), which is what
  /// makes shards scale.
  virtual Result<std::unique_ptr<Store>> CreateReadSnapshot();

  IoStats& io_stats() { return io_stats_; }
  const IoStats& io_stats() const { return io_stats_; }

 protected:
  /// Shared Append precondition check: `t` past the stored range, `points`
  /// sorted by oid and duplicate-free.
  Status CheckAppend(Timestamp t,
                     const std::vector<SnapshotPoint>& points) const;

  IoStats io_stats_;

 private:
  /// Serializes every fallback snapshot of this store (see
  /// CreateReadSnapshot); engines with native snapshots never touch it.
  /// Guards no fields directly: it fences the parent's whole read path
  /// (ScanTimestamp/GetPoints) for the serialized-snapshot delegates.
  Mutex fallback_snapshot_mu_;
};

/// Factory helpers used by benches and examples; `dir` is a scratch
/// directory for the disk-backed engines.
enum class StoreKind { kMemory, kFile, kBPlusTree, kLsm };

const char* StoreKindName(StoreKind kind);

/// Creates an empty store of the given kind; disk engines place their files
/// under `dir` (created if needed).
Result<std::unique_ptr<Store>> CreateStore(StoreKind kind,
                                           const std::string& dir);

}  // namespace k2

#endif  // K2_STORAGE_STORE_H_
